/**
 * @file
 * Parallel sweep runner for design-space and figure reproductions.
 *
 * Every headline figure sweeps the co-simulation over many
 * independent (config, model, knob) points; each point builds its own
 * engine and event queue, so points are embarrassingly parallel. The
 * runner fans jobs out over a std::thread pool with an atomic work
 * counter and writes results into an index-addressed vector, so the
 * output order (and therefore every printed table) is identical to
 * the sequential run no matter how the OS schedules workers.
 */

#ifndef CAMLLM_CORE_SWEEP_H
#define CAMLLM_CORE_SWEEP_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <vector>

namespace camllm::core {

/** Deterministically-ordered parallel map over [0, n). */
class ParallelSweep
{
  public:
    /** @param threads worker count; 0 selects hardwareThreads(). */
    explicit ParallelSweep(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Evaluate fn(i) for every i in [0, n) and return the results in
     * index order. @p fn must be safe to call from multiple threads
     * (each sweep point should build its own engine).
     */
    template <typename R, typename Fn>
    std::vector<R>
    map(std::size_t n, Fn &&fn) const
    {
        static_assert(std::is_default_constructible_v<R>,
                      "sweep results are index-assigned");
        static_assert(!std::is_same_v<R, bool>,
                      "vector<bool> packs bits: concurrent "
                      "results[i] writes would race");
        std::vector<R> results(n);
        const unsigned workers =
            unsigned(std::min<std::size_t>(threads_, n));
        if (workers <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                results[i] = fn(i);
            return results;
        }
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                results[i] = fn(i);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        for (unsigned t = 0; t + 1 < workers; ++t)
            pool.emplace_back(worker);
        worker();
        for (auto &th : pool)
            th.join();
        return results;
    }

    /**
     * Worker count a default-constructed sweep uses: the
     * CAMLLM_SWEEP_THREADS environment variable when set, otherwise
     * std::thread::hardware_concurrency() (minimum 1).
     */
    static unsigned hardwareThreads();

  private:
    unsigned threads_;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_SWEEP_H
