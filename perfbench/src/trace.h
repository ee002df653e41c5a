/**
 * @file
 * In-memory span log for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around each call
 * it makes into a simulator layer (a serve() call, an engine step, a
 * bare flash or event-queue drive). They stay in memory while the run
 * measures and are written once at the end as Chrome trace-event
 * JSON (load it in chrome://tracing or Perfetto).
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Thread-safe span store; a disabled log records nothing. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< span that caused this one (0 = root)
        /** Requests the span covers: ids [request, request + requests).
         *  A request keeps its id across all its spans. */
        std::uint64_t request = 0;
        std::uint64_t requests = 0;
        std::uint32_t tid = 0;     ///< worker slot the span ran on
        double start_us = 0.0;     ///< since the log was created
        double dur_us = 0.0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Fresh span id (ids start at 1; 0 means "no parent"). */
    std::uint64_t nextId() { return next_id_.fetch_add(1) + 1; }

    void add(Span s);

    /** Sum of the durations of spans called @p name, in seconds. */
    double totalSeconds(const std::string &name) const;

    std::size_t size() const;

    /** Write every span as Chrome trace-event JSON; false on I/O
     *  failure. */
    bool write(const std::string &path) const;

    Clock::time_point origin() const { return origin_; }

  private:
    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    std::atomic<std::uint64_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/** RAII span: times its scope and adds itself to the log on exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, std::uint64_t parent,
               std::uint64_t request, std::uint32_t tid,
               std::uint64_t requests = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id, to parent child spans (0 when disabled). */
    std::uint64_t id() const { return span_.id; }

  private:
    SpanLog &log_;
    SpanLog::Span span_;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
