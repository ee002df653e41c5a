/**
 * @file
 * The benchmark's own tests: it can see the changes it exists to
 * catch (the paper's ablations, a host-cost change), its simulated
 * metrics are deterministic, and its tail guard refuses small samples.
 *
 *   cmake --build .bench_build --target perfbench_selftest
 *   .bench_build/perfbench_selftest
 *
 * Runs are shrunk to one or two replicas and no replays, so each test
 * takes seconds; bounds are read from BENCHMARK.json.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

/** The regression bound BENCHMARK.json fixes for end-to-end @p metric. */
double
boundOf(const std::string &metric)
{
    std::ifstream in(PERFBENCH_SPEC);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::regex re("\"name\":\\s*\"" + metric +
                        "\"[^}]*\"bound\":\\s*([0-9.]+)");
    std::smatch m;
    const std::string text = ss.str();
    if (!std::regex_search(text, m, re))
        ADD_FAILURE() << "no bound for " << metric << " in "
                      << PERFBENCH_SPEC;
    return m.empty() ? 0.0 : std::stod(m[1].str());
}

double
value(const RunResult &r, const std::string &metric)
{
    const perfbench::Metric *m = r.find(metric);
    EXPECT_NE(m, nullptr) << metric;
    return m ? m->value : 0.0;
}

/** One untimed pass over @p replicas replicas of @p workload. */
RunResult
shortRun(const std::string &workload, std::size_t replicas,
         std::function<void(camllm::core::CamConfig &)> tweak = {},
         unsigned threads = 1, std::uint64_t seed = 1)
{
    RunOptions o;
    o.seed = seed;
    o.seconds = 0.0;
    o.threads = threads;
    o.replicas = replicas;
    o.tweak = std::move(tweak);
    return perfbench::runWorkload(workload, o);
}

TEST(Sensitivity, PaperAblationsLowerDecodeRateBeyondBound)
{
    const double bound = boundOf("decode_tok_s");
    ASSERT_GT(bound, 0.0);
    const double base = value(shortRun("chat_70b", 1), "decode_tok_s");
    // Fig 12: no Slice Control on the read stream.
    const double no_slice = value(
        shortRun("chat_70b", 1,
                 [](camllm::core::CamConfig &c) { c.slicing = false; }),
        "decode_tok_s");
    // Fig 14: no hardware-aware tiling (no NPU co-computation).
    const double no_tiling = value(
        shortRun("chat_70b", 1,
                 [](camllm::core::CamConfig &c) { c.hybrid_tiling = false; }),
        "decode_tok_s");
    EXPECT_LT(no_slice, base * (1.0 - bound));
    // The tiling ablation costs about 6% at 70B, inside the bound (which
    // is sized to kv_pressure_7b's seed spread); simulated metrics are
    // exact per seed, so the drop itself must still show.
    EXPECT_LT(no_tiling, base * 0.97);
}

TEST(Sensitivity, DeeperSamplingCostsHostTimeNotSimulatedRate)
{
    const double bound = boundOf("sim_req_per_wall_s");
    ASSERT_GT(bound, 0.0);
    const RunResult base = shortRun("chat_70b", 1);
    const RunResult deep =
        shortRun("chat_70b", 1,
                 [](camllm::core::CamConfig &c) { c.sample_layers = 8; });
    EXPECT_LT(value(deep, "sim_req_per_wall_s"),
              value(base, "sim_req_per_wall_s") * (1.0 - bound));
    EXPECT_EQ(value(deep, "decode_tok_s"), value(base, "decode_tok_s"));
}

TEST(Determinism, SameSeedSameSimulatedResults)
{
    for (const char *w : {"kv_pressure_7b", "aged_7b"}) {
        const RunResult a = shortRun(w, 1);
        const RunResult b = shortRun(w, 1);
        EXPECT_EQ(a.sim_fingerprint, b.sim_fingerprint) << w;
        for (const char *m : {"decode_tok_s", "ttft_p50_ms", "tbt_p50_ms",
                              "goodput_tok_s", "slo_attain_frac"})
            EXPECT_EQ(value(a, m), value(b, m)) << w << " " << m;
    }
}

TEST(Determinism, ThreadCountDoesNotChangeSimulatedResults)
{
    const unsigned many = std::max(2u, perfbench::defaultThreads());
    for (const char *w : {"aged_7b", "kv_pressure_7b"}) {
        const RunResult one = shortRun(w, many, {}, 1);
        const RunResult par = shortRun(w, many, {}, many);
        EXPECT_EQ(one.sim_fingerprint, par.sim_fingerprint) << w;
        EXPECT_EQ(value(one, "ttft_p50_ms"), value(par, "ttft_p50_ms"))
            << w;
    }
}

TEST(Determinism, SeedChangesInputs)
{
    EXPECT_NE(shortRun("kv_pressure_7b", 1, {}, 1, 1).sim_fingerprint,
              shortRun("kv_pressure_7b", 1, {}, 1, 2).sim_fingerprint);
}

TEST(TailGuard, SmallSampleFailsTheRun)
{
    // One chat session is 4 requests: no tail has ten samples beyond.
    const RunResult r = shortRun("chat_70b", 1);
    EXPECT_FALSE(r.correct());
    bool tail_failure = false;
    for (const std::string &f : r.failures)
        tail_failure = tail_failure || f.find("tail") != std::string::npos;
    EXPECT_TRUE(tail_failure);
}

} // namespace
