/** @file Tests for the one reader of the PRORAM_* environment. */

#include "util/env.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/logging.hh"

namespace proram::env
{
namespace
{

/** Run @p body, then put @p name back to its ambient value: the suite
 *  may itself run under any of these knobs. */
template <typename Body>
void
restoringEnv(const char *name, Body &&body)
{
    const char *ambient = std::getenv(name);
    const std::string saved = ambient ? ambient : "";
    body();
    if (ambient != nullptr)
        ::setenv(name, saved.c_str(), 1);
    else
        ::unsetenv(name);
}

TEST(Env, GetReturnsTheRawValueOrNull)
{
    restoringEnv("PRORAM_METRICS_FILE", [] {
        ::unsetenv("PRORAM_METRICS_FILE");
        EXPECT_EQ(get("PRORAM_METRICS_FILE"), nullptr);
        ::setenv("PRORAM_METRICS_FILE", "", 1);
        EXPECT_STREQ(get("PRORAM_METRICS_FILE"), "");
        ::setenv("PRORAM_METRICS_FILE", "run=1.jsonl", 1);
        EXPECT_STREQ(get("PRORAM_METRICS_FILE"), "run=1.jsonl");
    });
}

TEST(Env, FlagTakesOnlyZeroOrOne)
{
    restoringEnv("PRORAM_AUDIT", [] {
        ::unsetenv("PRORAM_AUDIT");
        EXPECT_FALSE(flag("PRORAM_AUDIT"));
        ::setenv("PRORAM_AUDIT", "0", 1);
        EXPECT_FALSE(flag("PRORAM_AUDIT"));
        ::setenv("PRORAM_AUDIT", "1", 1);
        EXPECT_TRUE(flag("PRORAM_AUDIT"));
        for (const char *bad : {"yes", "2", "00", "", "0x1", " 1"}) {
            SCOPED_TRACE(bad);
            ::setenv("PRORAM_AUDIT", bad, 1);
            EXPECT_THROW(flag("PRORAM_AUDIT"), SimFatal);
        }
    });
}

TEST(Env, CountTakesAWholeDecimalInRange)
{
    restoringEnv("PRORAM_BENCH_THREADS", [] {
        ::unsetenv("PRORAM_BENCH_THREADS");
        EXPECT_EQ(count("PRORAM_BENCH_THREADS", 7, 100), 7u);
        ::setenv("PRORAM_BENCH_THREADS", "1", 1);
        EXPECT_EQ(count("PRORAM_BENCH_THREADS", 7, 100), 1u);
        ::setenv("PRORAM_BENCH_THREADS", "100", 1);
        EXPECT_EQ(count("PRORAM_BENCH_THREADS", 7, 100), 100u);
        for (const char *bad : {"0", "-1", "4x", "", "+3", " 3", "101",
                                "18446744073709551616"}) {
            SCOPED_TRACE(bad);
            ::setenv("PRORAM_BENCH_THREADS", bad, 1);
            EXPECT_THROW(count("PRORAM_BENCH_THREADS", 7, 100), SimFatal);
        }
    });
}

TEST(Env, PositiveTakesAWholeFiniteNumberAboveZero)
{
    restoringEnv("PRORAM_BENCH_SCALE", [] {
        ::unsetenv("PRORAM_BENCH_SCALE");
        EXPECT_EQ(positive("PRORAM_BENCH_SCALE", 1.5), 1.5);
        ::setenv("PRORAM_BENCH_SCALE", "0.02", 1);
        EXPECT_EQ(positive("PRORAM_BENCH_SCALE", 1.5), 0.02);
        ::setenv("PRORAM_BENCH_SCALE", "3", 1);
        EXPECT_EQ(positive("PRORAM_BENCH_SCALE", 1.5), 3.0);
        for (const char *bad : {"abc", "0.02x", "", "inf", "nan", "0",
                                "-1", "1e400"}) {
            SCOPED_TRACE(bad);
            ::setenv("PRORAM_BENCH_SCALE", bad, 1);
            EXPECT_THROW(positive("PRORAM_BENCH_SCALE", 1.5), SimFatal);
        }
    });
}

TEST(Env, FatalNamesTheVariableAndTheValue)
{
    restoringEnv("PRORAM_BENCH_THREADS", [] {
        ::setenv("PRORAM_BENCH_THREADS", "4x", 1);
        try {
            count("PRORAM_BENCH_THREADS", 1, 8);
            ADD_FAILURE() << "4x was accepted";
        } catch (const SimFatal &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("PRORAM_BENCH_THREADS"), std::string::npos);
            EXPECT_NE(what.find("'4x'"), std::string::npos);
        }
    });
}

TEST(Env, CheckNamesRejectsUnknownPrefixedNames)
{
    const char *const unknown[] = {"PRORAM_SHCEME", "PRORAM_BATCH",
                                   "PRORAM_TRACE_FILEX", "PRORAM_"};
    for (const char *name : unknown) {
        SCOPED_TRACE(name);
        const std::string entry = std::string(name) + "=1";
        const char *envp[] = {"HOME=/home/user", entry.c_str(), nullptr};
        try {
            checkNames(envp);
            ADD_FAILURE() << "accepted";
        } catch (const SimFatal &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(std::string("variable ") + name + " "),
                      std::string::npos);
        }
    }
}

TEST(Env, CheckNamesAcceptsKnownAndForeignNames)
{
    const char *envp[] = {
        // The seven knobs the library reads; one value holds a '='.
        "PRORAM_AUDIT=1",
        "PRORAM_BENCH_SCALE=0.02",
        "PRORAM_BENCH_THREADS=2",
        "PRORAM_METRICS_FILE=run.jsonl",
        "PRORAM_SCHEME=ring",
        "PRORAM_TRACE=0",
        "PRORAM_TRACE_FILE=/tmp/a=b.json",
        // The two only tests read.
        "PRORAM_CAPTURE_GOLDENS=1",
        "PRORAM_LARGE_SMOKE=1",
        // Names outside the PRORAM_ prefix are not ours to check.
        "PATH=/usr/bin",
        "XPRORAM_SHCEME=ring",
        "proram_shceme=ring",
        nullptr,
    };
    EXPECT_NO_THROW(checkNames(envp));
    const char *empty[] = {nullptr};
    EXPECT_NO_THROW(checkNames(empty));
}

} // namespace
} // namespace proram::env
