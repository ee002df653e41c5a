/**
 * @file
 * The benchmark's workloads and metrics.
 *
 * Each workload generates its requests from a seed and drives them
 * only through the simulator's public entry points
 * (core::Scheduler::serve, core::CambriconEngine, flash::FlashSystem,
 * EventQueue, core::ParallelSweep). A run sets the workload up,
 * serves every replica once for the simulated-device metrics, repeats
 * the identical pass until the time budget is spent for the host
 * metrics, and checks the outputs. Simulated metrics depend only on
 * (workload, seed, config); host metrics are wall-clock measurements.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/presets.h"

namespace perfbench {

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Knobs of one benchmark run. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;   ///< minimum length of the timed region
    bool trace = false;      ///< traced run: per-layer metrics + spans
    std::string trace_path;  ///< span file of a traced run ("" = none)
    unsigned threads = 0;    ///< replica workers; 0 = defaultThreads()
    /** Replicas to serve; 0 = the workload's own count. Tests shrink
     *  it to stay fast; the benchmark command never sets it. */
    std::size_t replicas = 0;
    /** Edit the device configuration before set-up (tests apply the
     *  paper's ablations through it). */
    std::function<void(camllm::core::CamConfig &)> tweak;
};

/** Outcome of one run. */
struct RunResult
{
    std::vector<std::string> failures; ///< failed output checks
    std::vector<std::string> notes;    ///< human-readable context lines
    std::uint64_t attempted = 0;       ///< requests sent, all passes
    std::uint64_t failed = 0;          ///< sent but not completed
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;     ///< traced runs only
    /** Hash over every simulated per-request and per-serve number of
     *  the first pass: equal fingerprints mean bit-identical
     *  simulated results. */
    std::uint64_t sim_fingerprint = 0;

    bool correct() const { return failures.empty(); }
    const Metric *find(const std::string &name) const;
};

/** Workload names in benchmark order. */
const std::vector<std::string> &workloadNames();

/** Replica workers a run uses by default: min(2, host threads). On a
 *  4-vCPU host four busy workers gave +/-13% same-seed host-rate
 *  noise against +/-3% with two, so two keep host metrics steady. */
unsigned defaultThreads();

/** Run workload @p name (fatal on an unknown name). */
RunResult runWorkload(const std::string &name, const RunOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
