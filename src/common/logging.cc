#include "logging.h"

#include <cstdio>
#include <cstdlib>

namespace camllm {

namespace {
bool log_quiet = false;

void
vreport(const char *prefix, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}
} // namespace

void
setLogQuiet(bool quiet)
{
    log_quiet = quiet;
}

bool
logQuiet()
{
    return log_quiet;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (log_quiet)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (log_quiet)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

namespace detail {

void
assertFail(const char *cond, const char *file, int line,
           const char *fmt, ...)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d: ",
                 cond, file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
assertFail(const char *cond, const char *file, int line)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d\n",
                 cond, file, line);
    std::abort();
}

} // namespace detail
} // namespace camllm
