#include "trace.h"

#include <fstream>

namespace perfbench {

void
SpanLog::add(Span s)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double us = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            us += s.dur_us;
    return us * 1e-6;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\""
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request
            << ",\"requests\":" << s.requests << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    return bool(out);
}

ScopedSpan::ScopedSpan(SpanLog &log, std::string name,
                       std::uint64_t parent, std::uint64_t request,
                       std::uint32_t tid, std::uint64_t requests)
    : log_(log), start_(Clock::now())
{
    if (!log_.enabled())
        return;
    span_.name = std::move(name);
    span_.id = log_.nextId();
    span_.parent = parent;
    span_.request = request;
    span_.requests = requests;
    span_.tid = tid;
}

ScopedSpan::~ScopedSpan()
{
    if (!log_.enabled())
        return;
    const Clock::time_point end = Clock::now();
    span_.start_us =
        std::chrono::duration<double, std::micro>(start_ - log_.origin())
            .count();
    span_.dur_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    log_.add(std::move(span_));
}

} // namespace perfbench
