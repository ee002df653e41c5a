/**
 * @file
 * Parameterized property sweeps (TEST_P): engine invariants across the
 * configuration x model x quantization matrix, flash steady-state
 * cadence across geometries and timing parameters, and tiling
 * invariants across matrix shapes.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "core/engine.h"
#include "core/presets.h"
#include "core/sweep.h"
#include "core/tiling.h"
#include "flash/channel_engine.h"
#include "llm/model_config.h"
#include "sim/event_queue.h"

namespace camllm {
namespace {

// --- engine invariants over the config matrix --------------------------------

struct EngineCase
{
    std::uint32_t channels;
    std::uint32_t chips;
    llm::QuantMode quant;
    bool slicing;
    bool tiling;
};

class EngineInvariants : public ::testing::TestWithParam<EngineCase>
{
};

TEST_P(EngineInvariants, HoldOnOpt67)
{
    const EngineCase &c = GetParam();
    core::CamConfig cfg = core::presetCustom(c.channels, c.chips);
    cfg.quant = c.quant;
    cfg.slicing = c.slicing;
    cfg.hybrid_tiling = c.tiling;

    llm::ModelConfig model = llm::opt6_7b();
    core::CambriconEngine engine(cfg, model);
    core::TokenStats s = engine.decodeToken();

    // 1. Time advances and speed is finite.
    EXPECT_GT(s.token_time, 0u);
    EXPECT_GT(s.tokens_per_s, 0.0);

    // 2. Utilization is a fraction.
    EXPECT_GE(s.avg_channel_util, 0.0);
    EXPECT_LE(s.avg_channel_util, 1.0);

    // 3. Weight traffic conservation (2% tile-padding slack).
    const double touched =
        double(s.weight_bytes_flash + s.weight_bytes_npu);
    EXPECT_NEAR(touched / double(engine.decodeWeightBytes()), 1.0, 0.02);

    // 4. Every weight byte is read from the NAND array at least once.
    EXPECT_GE(double(s.array_read_bytes) * 1.001, touched);

    // 5. No-tiling mode must not ship weights to the NPU.
    if (!c.tiling) {
        EXPECT_EQ(s.weight_bytes_npu, 0u);
    }

    // 6. Channel payload accounting: the NPU share crossed as
    // low-priority data.
    EXPECT_GE(double(s.channel_bytes_low) * 1.001,
              double(s.weight_bytes_npu));

    // 7. Flops split covers the whole decode step.
    const double total_flops = s.npu_flops + s.flash_flops;
    EXPECT_GT(total_flops,
              2.0 * double(engine.decodeWeightBytes()) /
                  (llm::QuantSpec::of(c.quant).weight_bits / 8.0) *
                  0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineInvariants,
    ::testing::Values(
        EngineCase{8, 2, llm::QuantMode::W8A8, true, true},
        EngineCase{8, 2, llm::QuantMode::W8A8, false, true},
        EngineCase{8, 2, llm::QuantMode::W8A8, true, false},
        EngineCase{8, 2, llm::QuantMode::W4A16, true, true},
        EngineCase{8, 2, llm::QuantMode::W2A16, true, true},
        EngineCase{16, 4, llm::QuantMode::W8A8, true, true},
        EngineCase{16, 4, llm::QuantMode::W4A16, true, true},
        EngineCase{32, 8, llm::QuantMode::W8A8, true, true},
        EngineCase{32, 8, llm::QuantMode::W8A8, true, false},
        EngineCase{1, 1, llm::QuantMode::W8A8, true, true},
        EngineCase{2, 16, llm::QuantMode::W8A8, true, true},
        EngineCase{64, 2, llm::QuantMode::W8A8, true, true}),
    [](const auto &info) {
        const EngineCase &c = info.param;
        std::string n = "ch" + std::to_string(c.channels) + "_chips" +
                        std::to_string(c.chips) + "_" +
                        llm::QuantSpec::of(c.quant).label() +
                        (c.slicing ? "" : "_noslice") +
                        (c.tiling ? "" : "_notile");
        return n;
    });

// --- engine invariants over models ---------------------------------------------

class EngineModels
    : public ::testing::TestWithParam<llm::ModelConfig>
{
};

TEST_P(EngineModels, WeightConservationAndOrdering)
{
    core::CamConfig cfg = core::presetM();
    core::CambriconEngine engine(cfg, GetParam());
    core::TokenStats s = engine.decodeToken();
    const double touched =
        double(s.weight_bytes_flash + s.weight_bytes_npu);
    EXPECT_NEAR(touched / double(engine.decodeWeightBytes()), 1.0, 0.02);
    EXPECT_GT(s.alphaEffective(), 0.3);
    EXPECT_LT(s.alphaEffective(), 0.98);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EngineModels,
    ::testing::Values(llm::opt6_7b(), llm::opt13b(), llm::opt30b(),
                      llm::opt66b(), llm::llama2_7b(), llm::llama2_13b(),
                      llm::llama2_70b()),
    [](const auto &info) {
        std::string n = info.param.name;
        for (auto &ch : n)
            if (ch == '-' || ch == '.')
                ch = '_';
        return n;
    });

// --- flash cadence across geometries --------------------------------------------

struct CadenceCase
{
    std::uint32_t dies;
    Tick t_read;
    Tick compute;
    Tick t_reg_move;
};

class FlashCadence : public ::testing::TestWithParam<CadenceCase>
{
};

TEST_P(FlashCadence, SteadyStateMatchesAnalyticInterval)
{
    const CadenceCase &c = GetParam();
    flash::FlashParams p;
    p.geometry.channels = 1;
    p.geometry.chips_per_channel = c.dies;
    p.geometry.dies_per_chip = 1;
    p.timing.t_read = c.t_read;
    p.timing.t_reg_move = c.t_reg_move;

    EventQueue eq;
    flash::CompletionRouter router(eq);
    std::vector<Tick> times;
    router.connect([&](const flash::Completion &comp) {
        if (comp.kind == flash::Completion::Kind::RcResult)
            times.push_back(eq.now());
    });
    flash::ChannelEngine ce(eq, p, router);
    flash::RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = c.dies;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 64;
    tile.compute_time = c.compute;
    const int n_tiles = 8;
    for (int i = 0; i < n_tiles; ++i)
        ce.submitTile(tile);
    eq.run();

    ASSERT_EQ(times.size(), std::size_t(n_tiles) * c.dies);
    // Interval between the last results of consecutive tiles in
    // steady state (skip the pipeline-fill head).
    const Tick t1 = times[5 * c.dies - 1];
    const Tick t2 = times[8 * c.dies - 1];
    const double measured = double(t2 - t1) / 3.0;
    const double expected =
        double(c.t_reg_move + std::max(c.t_read, c.compute));
    // Bus grants add sub-percent noise at these sizes.
    EXPECT_NEAR(measured, expected, expected * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlashCadence,
    ::testing::Values(CadenceCase{1, 30000, 30000, 400},
                      CadenceCase{1, 30000, 10000, 400},
                      CadenceCase{1, 10000, 30000, 400},
                      CadenceCase{4, 30000, 30000, 400},
                      CadenceCase{4, 20000, 5000, 100},
                      CadenceCase{8, 30000, 30000, 400},
                      CadenceCase{2, 30000, 60000, 0}),
    [](const auto &info) {
        const CadenceCase &c = info.param;
        return "d" + std::to_string(c.dies) + "_tR" +
               std::to_string(c.t_read / 1000) + "us_comp" +
               std::to_string(c.compute / 1000) + "us_mv" +
               std::to_string(c.t_reg_move);
    });

// --- tiling invariants across shapes ----------------------------------------------

class TilingShapes
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint64_t>>
{
};

TEST_P(TilingShapes, InvariantsHold)
{
    const auto [rows, cols] = GetParam();
    for (auto quant : {llm::QuantMode::W8A8, llm::QuantMode::W4A16}) {
        core::CamConfig cfg = core::presetM();
        core::TilingPlanner planner(cfg.flash,
                                    llm::QuantSpec::of(quant),
                                    cfg.tilingOptions());
        core::TilePlan p = planner.plan(rows, cols);

        // Atomic tile fits in one page.
        EXPECT_LE(std::uint64_t(p.wc) * p.hpc, planner.elemsPerPage());
        // Rows conserved and flash rows are whole units.
        EXPECT_EQ(p.flash_rows + p.npu_rows, rows);
        EXPECT_EQ(p.flash_rows % p.hpc, 0u);
        // Column tiles cover the matrix.
        EXPECT_GE(std::uint64_t(p.n_col_tiles) * p.tile.w, cols);
        // Split ratio and duty are fractions.
        EXPECT_GT(p.alpha, 0.0);
        EXPECT_LE(p.alpha, 1.0);
        EXPECT_GT(p.rate_rc, 0.0);
        EXPECT_LT(p.rate_rc, 1.0);
        // Page utilization is meaningful.
        EXPECT_GT(p.page_utilization, 0.5);
        EXPECT_LE(p.page_utilization, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TilingShapes,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{4096, 4096},
                      std::pair<std::uint64_t, std::uint64_t>{5120, 5120},
                      std::pair<std::uint64_t, std::uint64_t>{7168, 7168},
                      std::pair<std::uint64_t, std::uint64_t>{9216, 9216},
                      std::pair<std::uint64_t, std::uint64_t>{16384,
                                                              4096},
                      std::pair<std::uint64_t, std::uint64_t>{4096,
                                                              16384},
                      std::pair<std::uint64_t, std::uint64_t>{50272,
                                                              9216},
                      std::pair<std::uint64_t, std::uint64_t>{1024,
                                                              8192},
                      std::pair<std::uint64_t, std::uint64_t>{28672,
                                                              8192},
                      std::pair<std::uint64_t, std::uint64_t>{11008,
                                                              4096}),
    [](const auto &info) {
        return std::to_string(info.param.first) + "x" +
               std::to_string(info.param.second);
    });

// --- parallel sweep runner -----------------------------------------------------

TEST(ParallelSweep, ResultsComeBackInIndexOrder)
{
    core::ParallelSweep sweep(4);
    auto out = sweep.map<std::size_t>(257, [](std::size_t i) {
        return i * i;
    });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelSweep, MatchesSequentialEngineResults)
{
    const llm::ModelConfig model = llm::opt6_7b();
    const std::uint32_t chips[] = {1, 2, 4, 8};

    std::vector<core::TokenStats> seq;
    for (auto c : chips)
        seq.push_back(core::CambriconEngine(core::presetCustom(8, c),
                                            model)
                          .decodeToken());

    core::ParallelSweep sweep(4);
    auto par = sweep.map<core::TokenStats>(4, [&](std::size_t i) {
        return core::CambriconEngine(core::presetCustom(8, chips[i]),
                                     model)
            .decodeToken();
    });

    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(par[i].token_time, seq[i].token_time);
        EXPECT_EQ(par[i].pages_computed, seq[i].pages_computed);
        EXPECT_EQ(par[i].weight_bytes_flash, seq[i].weight_bytes_flash);
        EXPECT_EQ(par[i].weight_bytes_npu, seq[i].weight_bytes_npu);
    }
}

TEST(ParallelSweep, SingleThreadFallback)
{
    core::ParallelSweep sweep(1);
    EXPECT_EQ(sweep.threads(), 1u);
    auto out = sweep.map<int>(5, [](std::size_t i) { return int(i); });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 10);
}

} // namespace
} // namespace camllm
