/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 */

#ifndef CAMLLM_BENCH_BENCH_UTIL_H
#define CAMLLM_BENCH_BENCH_UTIL_H

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/engine.h"
#include "core/presets.h"
#include "core/sweep.h"
#include "llm/model_config.h"

namespace camllm::bench {

/** The three Table II presets in order. */
inline std::vector<core::CamConfig>
presets()
{
    return {core::presetS(), core::presetM(), core::presetL()};
}

/** Decode one token and return the stats. */
inline core::TokenStats
run(const core::CamConfig &cfg, const llm::ModelConfig &model)
{
    return core::CambriconEngine(cfg, model).decodeToken();
}

/** A single sweep point: decode one token of model under cfg. */
using SweepJob = std::pair<core::CamConfig, llm::ModelConfig>;

/**
 * Decode one token per job on the ParallelSweep pool. Results come
 * back in job order, so tables built from them are identical to a
 * sequential sweep.
 */
inline std::vector<core::TokenStats>
runSweep(const std::vector<SweepJob> &jobs)
{
    core::ParallelSweep sweep;
    return sweep.map<core::TokenStats>(jobs.size(), [&](std::size_t i) {
        return run(jobs[i].first, jobs[i].second);
    });
}

/** Print a standard header naming the figure being reproduced. */
inline void
banner(const std::string &what)
{
    std::cout << "\n=== Cambricon-LLM reproduction: " << what
              << " ===\n\n";
}

} // namespace camllm::bench

#endif // CAMLLM_BENCH_BENCH_UTIL_H
