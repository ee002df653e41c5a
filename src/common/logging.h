/**
 * @file
 * Error / status reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal invariant was violated (a simulator bug);
 *            aborts so a debugger or core dump can capture state.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, impossible parameters); exits cleanly.
 * warn()   - something is suspicious but the simulation continues.
 * inform() - plain status output.
 */

#ifndef CAMLLM_COMMON_LOGGING_H
#define CAMLLM_COMMON_LOGGING_H

#include <cstdarg>
#include <string>

namespace camllm {

/** Abort with a formatted message; use for simulator bugs. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a formatted message; use for user/config errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; the simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a status message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn()/inform() output (used by quiet benches and tests). */
void setLogQuiet(bool quiet);

/** @return true when warn()/inform() output is suppressed. */
bool logQuiet();

namespace detail {
/** Implementation hook for CAMLLM_ASSERT; formats and panics. */
[[noreturn]] void assertFail(const char *cond, const char *file, int line,
                             const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/** CAMLLM_ASSERT without a message. */
[[noreturn]] void assertFail(const char *cond, const char *file, int line);
} // namespace detail

/**
 * panic() when @p cond is false; optional printf-style context follows
 * the condition. Kept as a macro so the condition text appears in the
 * message.
 */
#define CAMLLM_ASSERT(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::camllm::detail::assertFail(#cond, __FILE__,                 \
                                         __LINE__ __VA_OPT__(, )          \
                                             __VA_ARGS__);                \
        }                                                                 \
    } while (0)

} // namespace camllm

#endif // CAMLLM_COMMON_LOGGING_H
