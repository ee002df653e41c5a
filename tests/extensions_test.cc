/**
 * @file
 * Tests for the extension features beyond the paper's headline
 * evaluation: the prefill phase, whole-exchange generation, W2A16
 * quantization, the systolic-array utilization model, and the flash
 * retention/aging model.
 */

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/presets.h"
#include "ecc/retention.h"
#include "llm/model_config.h"
#include "llm/opgraph.h"
#include "npu/systolic.h"

namespace camllm {
namespace {

using core::CamConfig;
using core::CambriconEngine;
using core::TokenStats;

// --- prefill graph -----------------------------------------------------------

TEST(PrefillGraph, SameWeightsAsDecode)
{
    llm::ModelConfig m = llm::opt6_7b();
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    auto d = llm::buildUnitGraph(m, 256, 1, q, m.n_layers);
    auto p = llm::buildUnitGraph(m, 0, 256, q, m.n_layers);
    EXPECT_EQ(d.totalWeightElems(), p.totalWeightElems());
}

TEST(PrefillGraph, GemvComputeScaleIsPromptLength)
{
    llm::ModelConfig m = llm::opt6_7b();
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    auto g = llm::buildUnitGraph(m, 0, 128, q, 2);
    for (const auto &op : g.ops) {
        if (op.kind != llm::OpKind::GemvWeight)
            continue;
        if (op.name == "lm_head")
            EXPECT_DOUBLE_EQ(op.npu_compute_scale, 1.0);
        else
            EXPECT_DOUBLE_EQ(op.npu_compute_scale, 128.0);
    }
}

TEST(PrefillGraph, AttentionFlopsQuadratic)
{
    llm::ModelConfig m = llm::opt6_7b();
    auto q = llm::QuantSpec::of(llm::QuantMode::W8A8);
    auto g1 = llm::buildUnitGraph(m, 0, 128, q, 1);
    auto g2 = llm::buildUnitGraph(m, 0, 256, q, 1);
    auto attn_flops = [](const llm::DecodeGraph &g) {
        double f = 0.0;
        for (const auto &op : g.ops)
            if (op.kind == llm::OpKind::KvLoadCompute)
                f += op.flops;
        return f;
    };
    // Causal attention sums seq*(seq+1)/2 MACs per dimension, so
    // doubling the prompt scales flops by the exact quadratic-ish
    // ratio 256*257 / (128*129) ~= 3.98 (asymptotically 4x).
    EXPECT_DOUBLE_EQ(attn_flops(g2) / attn_flops(g1),
                     (256.0 * 257.0) / (128.0 * 129.0));
}

// --- prefill engine -----------------------------------------------------------

TEST(PrefillEngine, MuchFasterPerTokenThanDecode)
{
    // Prefill amortizes one weight pass over the whole prompt.
    CamConfig cfg = core::presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats dec = e.decodeToken();
    TokenStats pre = e.prefill(256);
    EXPECT_GT(pre.tokens_per_s, dec.tokens_per_s * 20.0);
}

TEST(PrefillEngine, NoInFlashComputing)
{
    CamConfig cfg = core::presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats pre = e.prefill(64);
    EXPECT_EQ(pre.weight_bytes_flash, 0u);
    EXPECT_EQ(pre.pages_computed, 0u);
    EXPECT_GT(pre.pages_read, 100u);
}

TEST(PrefillEngine, LongPromptsBecomeComputeBound)
{
    // Short prompts are stream-bound (time ~ flat); very long prompts
    // are NPU-compute-bound (time ~ linear in prompt).
    CamConfig cfg = core::presetL();
    CambriconEngine e(cfg, llm::opt6_7b());
    const Tick t256 = e.prefill(256).token_time;
    const Tick t4k = e.prefill(4096).token_time;
    EXPECT_GT(double(t4k), 4.0 * double(t256));
    EXPECT_LT(double(t4k), 32.0 * double(t256));
}

TEST(PrefillEngine, StreamBoundAtShortPrompts)
{
    // On the small config the weight stream dominates prefill: the
    // prompt-64 and prompt-16 latencies are nearly equal.
    CamConfig cfg = core::presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    const Tick a = e.prefill(16).token_time;
    const Tick b = e.prefill(64).token_time;
    EXPECT_LT(double(b) / double(a), 1.3);
}

// --- generate -------------------------------------------------------------------

TEST(Generate, TotalsAreConsistent)
{
    CamConfig cfg = core::presetM();
    CambriconEngine e(cfg, llm::llama2_7b());
    core::GenerateStats g = e.generate(128, 32);
    EXPECT_GT(g.total_time, g.prefill.token_time);
    const Tick reply = g.total_time - g.prefill.token_time;
    EXPECT_GE(reply, 32 * std::min(g.first_decode.token_time,
                                   g.last_decode.token_time));
    EXPECT_LE(reply, 32 * std::max(g.first_decode.token_time,
                                   g.last_decode.token_time));
}

TEST(Generate, LongerContextSlowsLaterTokens)
{
    CamConfig cfg = core::presetL();
    CambriconEngine e(cfg, llm::llama2_7b());
    core::GenerateStats g = e.generate(64, 1024);
    EXPECT_GT(g.last_decode.token_time, g.first_decode.token_time);
    EXPECT_GT(g.last_decode.dram_bytes, g.first_decode.dram_bytes);
}

// --- W2A16 ------------------------------------------------------------------------

TEST(W2A16, SpecAndLabel)
{
    auto q = llm::QuantSpec::of(llm::QuantMode::W2A16);
    EXPECT_EQ(q.weight_bits, 2u);
    EXPECT_EQ(q.act_bits, 16u);
    EXPECT_EQ(q.elemsPerPage(16384), 65536u);
    EXPECT_STREQ(q.label(), "W2A16");
    EXPECT_EQ(q.weightBytes(1000), 250u);
}

TEST(W2A16, FasterThanW4FasterThanW8)
{
    llm::ModelConfig m = llm::opt30b();
    auto speed = [&](llm::QuantMode mode) {
        CamConfig cfg = core::presetS();
        cfg.quant = mode;
        return CambriconEngine(cfg, m).decodeToken().tokens_per_s;
    };
    const double w8 = speed(llm::QuantMode::W8A8);
    const double w4 = speed(llm::QuantMode::W4A16);
    const double w2 = speed(llm::QuantMode::W2A16);
    EXPECT_GT(w4, w8);
    EXPECT_GT(w2, w4);
    EXPECT_LT(w2, w8 * 4.5); // bounded by the 4x weight shrink + slack
}

// --- systolic model ---------------------------------------------------------------

TEST(Systolic, PeakMatchesPaperTops)
{
    npu::SystolicParams p;
    EXPECT_NEAR(p.peakTops(), 2.048, 0.001);
}

TEST(Systolic, GemvRunsAtFullLaneWidth)
{
    // Weight-streaming dataflow keeps GeMV near peak.
    npu::SystolicParams p;
    auto e = npu::estimateGemm(p, 4096, 4096, 1);
    EXPECT_GT(e.utilization, 0.95);
    EXPECT_NEAR(e.effective_tops, p.peakTops(), 0.15);
}

TEST(Systolic, BatchedGemmApproachesPeak)
{
    npu::SystolicParams p;
    auto e = npu::estimateGemm(p, 4096, 4096, 512);
    EXPECT_GT(e.utilization, 0.7);
}

TEST(Systolic, TinyMatrixWastesTheArray)
{
    npu::SystolicParams p;
    auto e = npu::estimateGemm(p, 8, 8, 1);
    EXPECT_LT(e.utilization, 0.25);
}

TEST(Systolic, NeverTheDecodeBottleneck)
{
    // The validation behind the engine's rate model: at 2 TOPS the
    // array chews a 16 KB page (32 Kops) far faster than tR.
    npu::SystolicParams p;
    auto e = npu::estimateGemm(p, 64, 256, 1); // one page of weights
    EXPECT_LT(e.time, Tick(30 * kUs) / 100);
}

TEST(Systolic, CyclesMonotoneInWork)
{
    npu::SystolicParams p;
    auto a = npu::estimateGemm(p, 1024, 1024, 1);
    auto b = npu::estimateGemm(p, 2048, 1024, 1);
    auto c = npu::estimateGemm(p, 2048, 2048, 4);
    EXPECT_GT(b.cycles, a.cycles);
    EXPECT_GT(c.cycles, b.cycles);
}

// --- retention model ---------------------------------------------------------------

TEST(Retention, AnchorPoints)
{
    // Fresh part after hours: ~1e-4 (paper cites Zhao et al.).
    const double fresh = ecc::retentionBer(24.0, 0.0);
    EXPECT_GT(fresh, 3e-5);
    EXPECT_LT(fresh, 3e-4);

    // Heavily worn part: >= 1e-2 (paper cites Cai et al.).
    const double worn = ecc::retentionBer(24.0 * 365, 6000.0);
    EXPECT_GT(worn, 1e-2);
}

TEST(Retention, MonotoneInTimeAndWear)
{
    double prev = 0.0;
    for (double h : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
        double b = ecc::retentionBer(h, 500.0);
        EXPECT_GT(b, prev);
        prev = b;
    }
    prev = 0.0;
    for (double pe : {0.0, 1000.0, 3000.0, 9000.0}) {
        double b = ecc::retentionBer(100.0, pe);
        EXPECT_GT(b, prev);
        prev = b;
    }
}

TEST(Retention, ClampedBelowHalf)
{
    EXPECT_LT(ecc::retentionBer(1e12, 1e9), 0.5);
}

} // namespace
} // namespace camllm
