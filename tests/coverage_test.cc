/**
 * @file
 * Deeper coverage: op-graph structure, the args parser, the energy
 * model, pipeline sweeps, ECC bit-level layout, and failure injection
 * on user-facing validation paths.
 */

#include <gtest/gtest.h>

#include "baselines/pipeline.h"
#include "common/args.h"
#include "core/energy.h"
#include "core/engine.h"
#include "core/presets.h"
#include "ecc/bitstream.h"
#include "ecc/hamming.h"
#include "ecc/outlier_codec.h"
#include "llm/model_config.h"
#include "llm/opgraph.h"

namespace camllm {
namespace {

// --- op graph structure -------------------------------------------------------

TEST(OpGraphStructure, OpCountsPerLayer)
{
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    // Standard FFN: ln1, q, k, v, append, score, softmax, context, o,
    // ln2, fc1, gelu, fc2 = 13 ops per layer (+3 global).
    auto g_opt = llm::buildUnitGraph(llm::opt6_7b(), 16, 1, q, 4);
    EXPECT_EQ(g_opt.ops.size(), 4u * 13 + 3);
    // Gated FFN adds one GeMV: 14 per layer.
    auto g_llama = llm::buildUnitGraph(llm::llama2_7b(), 16, 1, q, 4);
    EXPECT_EQ(g_llama.ops.size(), 4u * 14 + 3);
}

TEST(OpGraphStructure, EveryNonRootOpHasDeps)
{
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    auto g = llm::buildUnitGraph(llm::opt6_7b(), 16, 1, q, 2);
    for (std::size_t i = 1; i < g.ops.size(); ++i)
        EXPECT_FALSE(g.ops[i].deps.empty()) << g.ops[i].name;
}

TEST(OpGraphStructure, EveryOpReachable)
{
    // Walking dependents from the root must reach the lm_head.
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    auto g = llm::buildUnitGraph(llm::llama2_7b(), 16, 1, q, 3);
    std::vector<bool> reach(g.ops.size(), false);
    reach[0] = true;
    for (std::size_t i = 1; i < g.ops.size(); ++i)
        for (auto d : g.ops[i].deps)
            if (reach[d])
                reach[i] = true;
    EXPECT_TRUE(reach[g.lastOp()]);
}

TEST(OpGraphStructure, TotalFlopsNearTwiceParams)
{
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    llm::ModelConfig m = llm::opt6_7b();
    auto g = llm::buildUnitGraph(m, 512, 1, q, m.n_layers);
    // Decode flops ~ 2 * weight params (+ small attention/SFU terms).
    const double ratio =
        g.totalFlops() / (2.0 * double(m.decodeWeightParams()));
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 1.1);
}

TEST(OpGraphStructure, GqaShrinksKvOps)
{
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    auto g70 = llm::buildUnitGraph(llm::llama2_70b(), 100, 1, q, 1);
    std::uint64_t kv_rows = 0;
    for (const auto &op : g70.ops)
        if (op.name == "wk")
            kv_rows = op.rows;
    EXPECT_EQ(kv_rows, 1024u); // 8 kv heads x 128 head dim
}

// --- args parser ----------------------------------------------------------------

TEST(Args, ParsesAllForms)
{
    // Note: "--key value" greedily consumes the next token, so a
    // trailing bare "--flag" is the boolean form.
    const char *argv[] = {"prog", "pos1", "--a=1", "--b", "2",
                          "--c=x", "--flag"};
    Args args(7, argv);
    EXPECT_EQ(args.getInt("a", 0), 1);
    EXPECT_EQ(args.getInt("b", 0), 2);
    EXPECT_TRUE(args.has("flag"));
    EXPECT_EQ(args.get("c"), "x");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Args, FallbacksWhenMissing)
{
    const char *argv[] = {"prog"};
    Args args(1, argv);
    EXPECT_EQ(args.getInt("nope", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("nope", 2.5), 2.5);
    EXPECT_EQ(args.get("nope", "dflt"), "dflt");
    EXPECT_FALSE(args.has("nope"));
}

TEST(Args, TracksUnusedKeys)
{
    const char *argv[] = {"prog", "--used=1", "--typo=2"};
    Args args(3, argv);
    args.getInt("used", 0);
    auto unused = args.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "typo");
}

TEST(ArgsDeath, MalformedIntegerIsFatal)
{
    const char *argv[] = {"prog", "--n=abc"};
    Args args(2, argv);
    EXPECT_EXIT(args.getInt("n", 0), ::testing::ExitedWithCode(1),
                "integer");
}

// --- energy model ------------------------------------------------------------------

TEST(Energy, LinearInCounters)
{
    core::TokenStats s;
    s.array_read_bytes = 1'000'000'000;
    s.channel_bytes_low = 500'000'000;
    s.dram_bytes = 100'000'000;
    core::EnergyBreakdown a = core::computeEnergy(s);
    s.array_read_bytes *= 2;
    core::EnergyBreakdown b = core::computeEnergy(s);
    EXPECT_DOUBLE_EQ(b.array_j, 2.0 * a.array_j);
    EXPECT_DOUBLE_EQ(b.channel_j, a.channel_j);
}

TEST(Energy, CustomParamsRespected)
{
    core::TokenStats s;
    s.dram_bytes = 1'000'000'000;
    core::EnergyParams p;
    p.pj_per_byte_dram = 300.0;
    EXPECT_NEAR(core::computeEnergy(s, p).dram_j, 0.3, 1e-9);
}

TEST(Energy, ZeroCountersZeroJoules)
{
    EXPECT_DOUBLE_EQ(core::computeEnergy(core::TokenStats{}).totalJ(),
                     0.0);
}

// --- pipeline sweeps ------------------------------------------------------------------

TEST(PipelineSweep, TotalNeverBelowBottleneckBound)
{
    for (double slow : {0.5, 1.0, 4.0}) {
        std::vector<baselines::Stage> stages = {
            {"a", 8.0, 100}, {"slow", slow, 50}, {"c", 16.0, 10}};
        auto r = baselines::runPipeline(stages, 10'000'000, 100'000);
        EXPECT_GE(double(r.total_time), 10'000'000.0 / slow);
        EXPECT_EQ(r.bottleneck_stage, 1u);
    }
}

TEST(PipelineSweep, ChunkCountInvariance)
{
    // With zero latency, chunking barely matters beyond the fill.
    std::vector<baselines::Stage> stages = {{"a", 2.0, 0},
                                            {"b", 1.0, 0}};
    auto coarse = baselines::runPipeline(stages, 1'000'000, 250'000);
    auto fine = baselines::runPipeline(stages, 1'000'000, 25'000);
    EXPECT_NEAR(double(fine.total_time), 1'000'000.0, 15'000.0);
    EXPECT_LT(fine.total_time, coarse.total_time);
}

// --- ECC bit-level layout ---------------------------------------------------------------

TEST(EccLayout, SpareBytesMatchFormula)
{
    ecc::OutlierCodec codec;
    // 9 threshold bytes + ceil(163 * 35 / 8) record bytes.
    const std::uint32_t bits = 9 * 8 + 163 * (19 + 16);
    EXPECT_EQ(codec.eccBytes(16384), (bits + 7) / 8);
}

TEST(EccLayout, EncodeIsDeterministic)
{
    ecc::OutlierCodec codec;
    std::vector<std::int8_t> page(4096);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = std::int8_t((i * 37) % 251 - 125);
    EXPECT_EQ(codec.encode(page), codec.encode(page));
}

TEST(EccLayout, ThresholdSurvivesFourCopyCorruptions)
{
    // 9 copies vote bitwise: corrupting 4 whole copies cannot move it.
    ecc::OutlierCodec codec;
    std::vector<std::int8_t> page(1024);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = std::int8_t(i % 100);
    auto ecc_blob = codec.encode(page);
    for (int c = 0; c < 4; ++c)
        ecc_blob[std::size_t(c)] ^= 0xff;
    auto copy = page;
    ecc::OutlierDecodeStats st;
    codec.decode(copy, ecc_blob, &st);
    EXPECT_EQ(copy, page); // nothing clamped, nothing repaired
    EXPECT_EQ(st.clamped, 0u);
}

TEST(EccLayout, NegativeOutliersProtected)
{
    ecc::OutlierCodec codec;
    std::vector<std::int8_t> page(1024, 1);
    page[10] = -120; // the magnitude champion is negative
    auto blob = codec.encode(page);
    auto copy = page;
    copy[10] = 7;
    codec.decode(copy, blob, nullptr);
    EXPECT_EQ(copy[10], -120);
}

TEST(EccLayout, MinusOneTiesDoNotClamp)
{
    // All-equal-magnitude page: threshold equals every value; nothing
    // may be clamped (strict inequality).
    ecc::OutlierCodec codec;
    std::vector<std::int8_t> page(512, -3);
    auto blob = codec.encode(page);
    auto copy = page;
    ecc::OutlierDecodeStats st;
    codec.decode(copy, blob, &st);
    EXPECT_EQ(st.clamped, 0u);
    EXPECT_EQ(copy, page);
}

// --- failure injection on validation paths -------------------------------------------------

TEST(ValidationDeath, InvalidFlashGeometryIsFatal)
{
    core::CamConfig cfg = core::presetS();
    cfg.flash.geometry.channels = 0;
    EXPECT_EXIT(
        { core::CambriconEngine e(cfg, llm::opt6_7b()); },
        ::testing::ExitedWithCode(1), "invalid");
}

TEST(ValidationDeath, InvalidModelIsFatal)
{
    llm::ModelConfig bad = llm::opt6_7b();
    bad.d_model = 0;
    EXPECT_EXIT(
        { core::CambriconEngine e(core::presetS(), bad); },
        ::testing::ExitedWithCode(1), "invalid");
}

TEST(ValidationDeath, ModelLargerThanFlashIsFatal)
{
    core::CamConfig tiny = core::presetS();
    tiny.flash.geometry.blocks_per_plane = 4; // ~8 GB device
    EXPECT_EXIT(
        { core::CambriconEngine e(tiny, llm::llama2_70b()); },
        ::testing::ExitedWithCode(1), "does not fit");
}

TEST(Validation, SeventyBFitsEveryPreset)
{
    for (const auto &cfg :
         {core::presetS(), core::presetM(), core::presetL()}) {
        core::CambriconEngine e(cfg, llm::llama2_70b());
        EXPECT_GT(e.decodeWeightBytes(), 60ull * 1000 * 1000 * 1000);
    }
}

TEST(ValidationDeath, HammingRejectsOversizedValue)
{
    EXPECT_DEATH(ecc::hammingEncode(std::uint16_t(1u << 14)),
                 "exceeds 14 bits");
}

TEST(ValidationDeath, BitReaderPastEndPanics)
{
    std::vector<std::uint8_t> one_byte = {0xff};
    ecc::BitReader r(one_byte);
    r.get(8);
    EXPECT_DEATH(r.get(1), "exhausted");
}

} // namespace
} // namespace camllm
