#include "util/logging.hh"

#include <iostream>

namespace proram
{

namespace
{

std::string
locate(const char *file, int line, const char *kind,
       const std::string &msg)
{
    std::ostringstream os;
    os << kind << ": " << msg << " @ " << file << ":" << line;
    return os.str();
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    throw SimPanic(locate(file, line, "panic", msg));
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    throw SimFatal(locate(file, line, "fatal", msg));
}

int
reportFatal(const SimFatal &e)
{
    std::cerr << e.what() << "\n";
    return 1;
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << locate(file, line, "warn", msg) << "\n";
}

} // namespace proram
