/**
 * @file
 * gem5-style status/error reporting: panic() for simulator bugs,
 * fatal() for user/configuration errors, warn() for status.
 */

#ifndef PRORAM_UTIL_LOGGING_HH
#define PRORAM_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace proram
{

/**
 * Abort the simulation because of an internal simulator bug.
 * Something that should never happen regardless of user input.
 * Throws SimPanic (so tests can assert on it) rather than abort().
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Terminate because the *user's* configuration is invalid
 * (bad parameters, impossible geometry). Throws SimFatal.
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning about questionable but survivable conditions. */
void warnImpl(const char *file, int line, const std::string &msg);

/** Thrown by panic(): an internal invariant was violated. */
class SimPanic : public std::exception
{
  public:
    explicit SimPanic(std::string msg) : msg_(std::move(msg)) {}
    const char *what() const noexcept override { return msg_.c_str(); }

  private:
    std::string msg_;
};

/** Thrown by fatal(): the user configuration cannot be simulated. */
class SimFatal : public std::exception
{
  public:
    explicit SimFatal(std::string msg) : msg_(std::move(msg)) {}
    const char *what() const noexcept override { return msg_.c_str(); }

  private:
    std::string msg_;
};

/**
 * Print a user error's one `fatal: ...` line to stderr and return the
 * exit status a command-line tool ends with on it (1).
 */
int reportFatal(const SimFatal &e);

namespace detail
{

inline void
formatTo(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatTo(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    formatTo(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    formatTo(os, args...);
    return os.str();
}

} // namespace detail
} // namespace proram

#define panic(...)                                                       \
    ::proram::panicImpl(__FILE__, __LINE__,                              \
                        ::proram::detail::format(__VA_ARGS__))

#define fatal(...)                                                       \
    ::proram::fatalImpl(__FILE__, __LINE__,                              \
                        ::proram::detail::format(__VA_ARGS__))

#define warn(...)                                                        \
    ::proram::warnImpl(__FILE__, __LINE__,                               \
                       ::proram::detail::format(__VA_ARGS__))

#define panic_if(cond, ...)                                              \
    do {                                                                 \
        if (cond)                                                        \
            panic(__VA_ARGS__);                                          \
    } while (0)

#define fatal_if(cond, ...)                                              \
    do {                                                                 \
        if (cond)                                                        \
            fatal(__VA_ARGS__);                                          \
    } while (0)

#endif // PRORAM_UTIL_LOGGING_HH
