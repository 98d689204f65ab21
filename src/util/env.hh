/**
 * @file
 * The one reader of the process environment. Every `PRORAM_*` knob
 * the library reads goes through these helpers, under one rule for a
 * bad value: it is fatal, and the message names the variable and the
 * value. The first read also checks the whole environment once
 * (checkNames): a `PRORAM_*` name missing from the table of known
 * knobs, such as the typo `PRORAM_SHCEME`, is fatal, so a run never
 * silently differs from what was asked for.
 *
 * Values are read at every call, never cached: a test may change a
 * variable between two constructions.
 */

#ifndef PRORAM_UTIL_ENV_HH
#define PRORAM_UTIL_ENV_HH

#include <cstdint>

namespace proram::env
{

/** The raw value of @p name, or nullptr when it is unset. */
const char *get(const char *name);

/** Unset or `0` is off, `1` is on; any other value is fatal. */
bool flag(const char *name);

/** A whole-string decimal in 1..@p max; @p fallback when unset. */
std::uint64_t count(const char *name, std::uint64_t fallback,
                    std::uint64_t max);

/** A whole-string finite number > 0; @p fallback when unset. */
double positive(const char *name, double fallback);

/**
 * The value rules of count() and positive(), for a value from
 * elsewhere (a command-line flag): a bad @p value is fatal, and the
 * message names @p what and the value.
 */
std::uint64_t parseCount(const char *what, const char *value,
                         std::uint64_t max);
double parsePositive(const char *what, const char *value);

/**
 * Fatal unless every `PRORAM_*` entry of @p envp, a null-terminated
 * `environ`-style array of `NAME=value` strings, names a known knob.
 * Other names pass. The first read above runs it on `environ`.
 */
void checkNames(const char *const *envp);

} // namespace proram::env

#endif // PRORAM_UTIL_ENV_HH
