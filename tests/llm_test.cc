/**
 * @file
 * Unit tests for the LLM workload module: model configs vs published
 * parameter counts, quantization byte math, the unit op graph, the
 * functional kernels and the synthetic transformer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "llm/eval.h"
#include "llm/kernels.h"
#include "llm/model_config.h"
#include "llm/opgraph.h"
#include "llm/quant.h"
#include "llm/tiny_transformer.h"

namespace camllm::llm {
namespace {

// --- model configs ----------------------------------------------------------

struct ParamCase
{
    ModelConfig model;
    double expected_billions;
};

class ModelParamCount : public ::testing::TestWithParam<ParamCase>
{
};

TEST_P(ModelParamCount, MatchesPublishedSize)
{
    const auto &[model, expected] = GetParam();
    const double billions = double(model.totalParams()) / 1e9;
    // Within 8% of the nameplate size (embeddings and norms vary by
    // checkpoint).
    EXPECT_NEAR(billions, expected, expected * 0.08) << model.name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelParamCount,
    ::testing::Values(ParamCase{opt6_7b(), 6.7}, ParamCase{opt13b(), 13.0},
                      ParamCase{opt30b(), 30.0}, ParamCase{opt66b(), 66.0},
                      ParamCase{llama2_7b(), 6.7},
                      ParamCase{llama2_13b(), 13.0},
                      ParamCase{llama2_70b(), 69.0}),
    [](const auto &info) {
        std::string n = info.param.model.name;
        for (auto &c : n)
            if (c == '-' || c == '.')
                c = '_';
        return n;
    });

TEST(ModelConfig, Llama70bUsesGqa)
{
    ModelConfig m = llama2_70b();
    EXPECT_EQ(m.n_kv_heads, 8u);
    EXPECT_EQ(m.kvProjDim(), 1024u);
    // GQA shrinks the KV cache 8x vs MHA.
    EXPECT_EQ(m.kvCacheBytes(1000, 1),
              2ull * 80 * 1024 * 1000);
}

TEST(ModelConfig, KvCacheMatchesPaperExample)
{
    // Paper: a 70B model at seq 1000 needs ~700 MB of KV cache. That
    // figure corresponds to MHA-style caching at INT8; our GQA-aware
    // count is 8x smaller and both fit easily in DRAM.
    ModelConfig m = llama2_70b();
    std::uint64_t mha_bytes = 2ull * m.n_layers * m.d_model * 1000;
    EXPECT_NEAR(double(mha_bytes), 1.31e9, 0.02e9);
    EXPECT_LT(m.kvCacheBytes(1000, 1), mha_bytes);
}

TEST(ModelConfig, DecodeWeightBytesOpt)
{
    // OPT-6.7B INT8 decode touches ~6.6 GB of weights per token.
    ModelConfig m = opt6_7b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    double gb = double(q.weightBytes(m.decodeWeightParams())) / 1e9;
    EXPECT_NEAR(gb, 6.6, 0.4);
}

TEST(ModelConfig, ValidityChecks)
{
    ModelConfig m = opt6_7b();
    EXPECT_TRUE(m.valid());
    m.n_kv_heads = 3; // does not divide n_heads
    EXPECT_FALSE(m.valid());
    m = opt6_7b();
    m.n_layers = 0;
    EXPECT_FALSE(m.valid());
}

TEST(ModelConfig, FamiliesAreOrdered)
{
    auto opts = optFamily();
    ASSERT_EQ(opts.size(), 4u);
    for (std::size_t i = 1; i < opts.size(); ++i)
        EXPECT_GT(opts[i].totalParams(), opts[i - 1].totalParams());
    EXPECT_EQ(llamaFamily().size(), 3u);
}

// --- quantization -----------------------------------------------------------

TEST(Quant, ByteMath)
{
    QuantSpec w8 = QuantSpec::of(QuantMode::W8A8);
    EXPECT_EQ(w8.weightBytes(1000), 1000u);
    EXPECT_EQ(w8.actBytes(1000), 1000u);
    EXPECT_EQ(w8.elemsPerPage(16384), 16384u);

    QuantSpec w4 = QuantSpec::of(QuantMode::W4A16);
    EXPECT_EQ(w4.weightBytes(1000), 500u);
    EXPECT_EQ(w4.actBytes(1000), 2000u);
    EXPECT_EQ(w4.elemsPerPage(16384), 32768u);
}

TEST(Quant, RoundsUpOddBitCounts)
{
    QuantSpec w4 = QuantSpec::of(QuantMode::W4A16);
    EXPECT_EQ(w4.weightBytes(3), 2u); // 12 bits -> 2 bytes
}

// --- op graph ---------------------------------------------------------------

TEST(OpGraph, WeightElementsMatchClosedForm)
{
    ModelConfig m = opt6_7b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    DecodeGraph g = buildUnitGraph(m, 512, 1, q, m.n_layers);
    EXPECT_EQ(g.totalWeightElems(), m.decodeWeightParams());
}

TEST(OpGraph, WeightElementsMatchClosedFormGated)
{
    ModelConfig m = llama2_70b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    DecodeGraph g = buildUnitGraph(m, 1000, 1, q, m.n_layers);
    EXPECT_EQ(g.totalWeightElems(), m.decodeWeightParams());
}

TEST(OpGraph, KvLoadBytesMatchCache)
{
    ModelConfig m = opt6_7b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    const std::uint32_t seq = 512;
    DecodeGraph g = buildUnitGraph(m, seq, 1, q, m.n_layers);
    // Score + context each stream half the KV cache per layer; the
    // step attends to its own new entry too.
    EXPECT_EQ(g.totalKvLoadBytes(), m.kvCacheBytes(seq + 1, 1));
}

TEST(OpGraph, ActivationWidthScalesKvBytes)
{
    ModelConfig m = opt6_7b();
    DecodeGraph g8 = buildUnitGraph(m, 256, 1,
                                    QuantSpec::of(QuantMode::W8A8),
                                    m.n_layers);
    DecodeGraph g16 = buildUnitGraph(m, 256, 1,
                                     QuantSpec::of(QuantMode::W4A16),
                                     m.n_layers);
    EXPECT_EQ(g16.totalKvLoadBytes(), 2 * g8.totalKvLoadBytes());
}

TEST(OpGraph, GatedFfnHasThreeMatrices)
{
    ModelConfig m = llama2_7b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    DecodeGraph g = buildUnitGraph(m, 16, 1, q, 1);
    int ffn_gemvs = 0;
    for (const auto &op : g.ops)
        if (op.kind == OpKind::GemvWeight &&
            (op.name == "w_gate" || op.name == "w_up" ||
             op.name == "w_down"))
            ++ffn_gemvs;
    EXPECT_EQ(ffn_gemvs, 3);
}

TEST(OpGraph, DepsAreAcyclicAndBackward)
{
    ModelConfig m = llama2_7b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    DecodeGraph g = buildUnitGraph(m, 64, 1, q, 3);
    for (std::uint32_t i = 0; i < g.ops.size(); ++i)
        for (std::uint32_t d : g.ops[i].deps)
            EXPECT_LT(d, i);
}

TEST(OpGraph, EndsWithLmHead)
{
    ModelConfig m = opt13b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    DecodeGraph g = buildUnitGraph(m, 64, 1, q, 4);
    const Op &last = g.ops[g.lastOp()];
    EXPECT_EQ(last.kind, OpKind::GemvWeight);
    EXPECT_EQ(last.rows, m.vocab);
    EXPECT_EQ(last.cols, m.d_model);
}

TEST(OpGraph, SampledGraphScalesLinearly)
{
    ModelConfig m = opt6_7b();
    QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    DecodeGraph g2 = buildUnitGraph(m, 64, 1, q, 2);
    DecodeGraph g4 = buildUnitGraph(m, 64, 1, q, 4);
    const std::uint64_t head = std::uint64_t(m.vocab) * m.d_model;
    EXPECT_EQ((g4.totalWeightElems() - head) / 4,
              (g2.totalWeightElems() - head) / 2);
}

// Splitting a prompt charges its causal attention, KV appends and SFU
// work exactly once: two 320-token chunks sum to the 640-token
// one-chunk prefill op for op, while each chunk streams every weight
// matrix again at its own share of the compute scale. A decode step is
// a one-token unit at kv_base = its context, so the causal sum
// telescopes through decode too.
TEST(OpGraph, SplitPrefillChargesTheWholePromptOnce)
{
    const QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    for (const ModelConfig &m : {opt6_7b(), llama2_70b()}) {
        const DecodeGraph whole =
            buildUnitGraph(m, /*kv_base=*/0, 640, q, 4);
        const DecodeGraph head =
            buildUnitGraph(m, /*kv_base=*/0, 320, q, 4,
                           /*with_head=*/false);
        const DecodeGraph tail =
            buildUnitGraph(m, /*kv_base=*/320, 320, q, 4);
        ASSERT_EQ(tail.ops.size(), whole.ops.size());
        ASSERT_EQ(head.ops.size() + 2, whole.ops.size()); // no head
        for (std::size_t i = 0; i < head.ops.size(); ++i) {
            const Op &w = whole.ops[i];
            const Op &a = head.ops[i];
            const Op &b = tail.ops[i];
            EXPECT_EQ(a.name, w.name) << i;
            EXPECT_EQ(b.name, w.name) << i;
            EXPECT_EQ(a.rows, w.rows) << i;
            EXPECT_EQ(b.cols, w.cols) << i;
            EXPECT_EQ(a.sfu_elems + b.sfu_elems, w.sfu_elems) << i;
            if (w.kind == OpKind::KvLoadCompute) {
                EXPECT_DOUBLE_EQ(a.flops + b.flops, w.flops) << i;
            }
            if (w.kind == OpKind::KvAppend) {
                EXPECT_EQ(a.kv_bytes + b.kv_bytes, w.kv_bytes) << i;
            }
            if (w.kind == OpKind::GemvWeight) {
                EXPECT_DOUBLE_EQ(a.npu_compute_scale +
                                     b.npu_compute_scale,
                                 w.npu_compute_scale)
                    << i;
            }
        }
    }

    // A P-token prompt in two chunks (split drawn at random; a split
    // at P is one chunk) plus k decode steps at kv_base P .. P+k-1
    // charge the attention flops, softmax elements and KV-append bytes
    // of one (P+k)-token chunk.
    struct Charge
    {
        double attn_flops = 0.0;
        double softmax_elems = 0.0;
        std::uint64_t append_bytes = 0;
    };
    const auto charge = [](const DecodeGraph &g, Charge &c) {
        for (const Op &op : g.ops) {
            if (op.kind == OpKind::KvLoadCompute)
                c.attn_flops += op.flops;
            if (op.kind == OpKind::KvAppend)
                c.append_bytes += op.kv_bytes;
            if (op.name == "softmax")
                c.softmax_elems += op.sfu_elems;
        }
    };
    const ModelConfig models[] = {opt6_7b(), llama2_7b(), llama2_70b()};
    Rng rng(8);
    for (int i = 0; i < 40; ++i) {
        const ModelConfig &m = models[rng.below(3)];
        const auto P = std::uint32_t(1 + rng.below(2048));
        const auto k = std::uint32_t(1 + rng.below(16));
        const auto split = std::uint32_t(1 + rng.below(P));
        SCOPED_TRACE(m.name + " P=" + std::to_string(P) +
                     " k=" + std::to_string(k) +
                     " split=" + std::to_string(split));
        Charge parts, whole;
        charge(buildUnitGraph(m, 0, split, q, 4, split == P), parts);
        if (split < P)
            charge(buildUnitGraph(m, split, P - split, q, 4), parts);
        for (std::uint32_t n = P; n < P + k; ++n)
            charge(buildUnitGraph(m, n, 1, q, 4), parts);
        charge(buildUnitGraph(m, 0, P + k, q, 4), whole);
        EXPECT_DOUBLE_EQ(parts.attn_flops, whole.attn_flops);
        EXPECT_DOUBLE_EQ(parts.softmax_elems, whole.softmax_elems);
        EXPECT_EQ(parts.append_bytes, whole.append_bytes);
        // The step at context n streams n earlier entries plus its own.
        const std::uint32_t n = P + k;
        EXPECT_EQ(buildUnitGraph(m, n, 1, q, m.n_layers).totalKvLoadBytes(),
                  m.kvCacheBytes(n + 1, q.act_bits / 8));
    }
}

// Mid-prompt chunks deposit KV but emit no token: no head projection,
// attention spanning the accumulated context, KV append sized by the
// chunk alone.
TEST(OpGraph, MidChunkWritesKvWithoutHead)
{
    const ModelConfig m = opt6_7b();
    const QuantSpec q = QuantSpec::of(QuantMode::W8A8);
    const std::uint32_t chunk = 256, kv_base = 512;
    const DecodeGraph g =
        buildUnitGraph(m, kv_base, chunk, q, 3, /*with_head=*/false);

    for (const Op &op : g.ops)
        EXPECT_NE(op.name, "lm_head");
    const std::uint32_t act_b = q.act_bits / 8;
    const std::uint64_t kvp = m.kvProjDim();
    for (const Op &op : g.ops) {
        if (op.kind == OpKind::KvAppend) {
            EXPECT_EQ(op.kv_bytes,
                      std::uint64_t(chunk) * 2ull * kvp * act_b);
        }
        if (op.kind == OpKind::KvLoadCompute) {
            EXPECT_EQ(op.kv_bytes,
                      std::uint64_t(kv_base + chunk) * kvp * act_b);
        }
    }
    // Last chunk at the same base gains exactly final_norm + lm_head.
    const DecodeGraph last =
        buildUnitGraph(m, kv_base, chunk, q, 3, /*with_head=*/true);
    EXPECT_EQ(last.ops.size(), g.ops.size() + 2);
    EXPECT_EQ(last.ops[last.lastOp()].name, "lm_head");
}

// --- functional kernels -------------------------------------------------------

TEST(Kernels, GemvAgainstManualReference)
{
    QTensor w(2, 3, 0.5f);
    // Row 0: [1, 2, 3]; row 1: [-1, 0, 4].
    w.data = {1, 2, 3, -1, 0, 4};
    std::vector<float> x = {1.0f, 2.0f, -1.0f};
    std::vector<float> y(2);
    gemv(w, x, y);
    EXPECT_FLOAT_EQ(y[0], 0.5f * (1 + 4 - 3));
    EXPECT_FLOAT_EQ(y[1], 0.5f * (-1 + 0 - 4));
}

// The register-blocked gemv must agree with the scalar reference to
// the last bit: each row accumulates in strict column order, so no
// float reassociation is allowed. Shapes cover the 8-row blocks, the
// row remainder (rows % 8 != 0), and the odd-column tail.
TEST(Kernels, BlockedGemvBitExactVsScalarReference)
{
    Rng rng(2024);
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {1, 1},   {7, 3},    {8, 2},    {9, 17},
        {16, 64}, {61, 127}, {128, 96}, {200, 333},
    };
    for (const auto &[rows, cols] : shapes) {
        QTensor w(rows, cols, 0.0375f);
        for (auto &v : w.data)
            v = std::int8_t(std::int32_t(rng.below(255)) - 127);
        std::vector<float> x(cols);
        for (auto &v : x)
            v = float(std::int32_t(rng.below(2001)) - 1000) / 250.0f;
        std::vector<float> blocked(rows), scalar(rows);
        gemv(w, x, blocked);
        gemvScalar(w, x, scalar);
        for (std::uint32_t r = 0; r < rows; ++r)
            ASSERT_EQ(blocked[r], scalar[r])
                << rows << "x" << cols << " row " << r;
    }
}

TEST(Kernels, LayerNormZeroMeanUnitVar)
{
    std::vector<float> x = {1, 2, 3, 4, 5, 6, 7, 8};
    layerNorm(x);
    float mean = 0, var = 0;
    for (float v : x)
        mean += v;
    mean /= x.size();
    for (float v : x)
        var += (v - mean) * (v - mean);
    var /= x.size();
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
}

TEST(Kernels, SoftmaxSumsToOne)
{
    std::vector<float> x = {0.5f, -1.0f, 3.0f, 2.0f};
    softmaxInPlace(x);
    float sum = 0;
    for (float v : x)
        sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(x[2], x[3]);
    EXPECT_GT(x[3], x[0]);
}

TEST(Kernels, SoftmaxStableUnderLargeInputs)
{
    std::vector<float> x = {1000.0f, 1001.0f};
    softmaxInPlace(x);
    EXPECT_FALSE(std::isnan(x[0]));
    EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-6f);
}

TEST(Kernels, GeluFixedPoints)
{
    std::vector<float> x = {0.0f, 10.0f, -10.0f};
    geluInPlace(x);
    EXPECT_FLOAT_EQ(x[0], 0.0f);
    EXPECT_NEAR(x[1], 10.0f, 1e-3f);
    EXPECT_NEAR(x[2], 0.0f, 1e-3f);
}

TEST(Kernels, SiluFixedPoints)
{
    std::vector<float> x = {0.0f, 10.0f};
    siluInPlace(x);
    EXPECT_FLOAT_EQ(x[0], 0.0f);
    EXPECT_NEAR(x[1], 10.0f, 1e-2f);
}

TEST(Kernels, ArgmaxFirstOnTies)
{
    std::vector<float> x = {1.0f, 3.0f, 3.0f, 2.0f};
    EXPECT_EQ(argmax(x), 1u);
}

// --- synthetic transformer ----------------------------------------------------

TEST(TinyTransformer, DeterministicForward)
{
    TinyConfig cfg;
    TinyTransformer a(cfg, 77), b(cfg, 77);
    std::vector<std::uint16_t> toks = {1, 2, 3, 4};
    auto la = a.forward(toks);
    auto lb = b.forward(toks);
    EXPECT_EQ(la, lb);
}

TEST(TinyTransformer, SeedChangesWeights)
{
    TinyConfig cfg;
    TinyTransformer a(cfg, 1), b(cfg, 2);
    EXPECT_NE(a.packWeights(), b.packWeights());
}

TEST(TinyTransformer, PackUnpackRoundTrip)
{
    TinyConfig cfg;
    TinyTransformer m(cfg, 5);
    auto blob = m.packWeights();
    EXPECT_EQ(blob.size(), m.weightBytes());

    TinyTransformer other(cfg, 99);
    other.unpackWeights(blob);
    EXPECT_EQ(other.packWeights(), blob);

    std::vector<std::uint16_t> toks = {10, 20, 30};
    EXPECT_EQ(m.forward(toks), other.forward(toks));
}

TEST(TinyTransformer, WeightDistributionHasOutliers)
{
    TinyConfig cfg;
    cfg.outlier_frac = 0.005;
    TinyTransformer m(cfg, 3);
    auto blob = m.packWeights();
    std::uint64_t big = 0;
    for (std::int8_t v : blob)
        if (v >= 90 || v <= -90)
            ++big;
    const double frac = double(big) / double(blob.size());
    // Planted outliers plus the Gaussian tail: well below 1.5%, well
    // above 0.05%.
    EXPECT_GT(frac, 0.0005);
    EXPECT_LT(frac, 0.015);
}

TEST(TinyTransformer, LogitsAreFiniteAndVaried)
{
    TinyConfig cfg;
    TinyTransformer m(cfg, 7);
    std::vector<std::uint16_t> toks = {5, 9, 100, 200, 3};
    auto logits = m.forward(toks);
    ASSERT_EQ(logits.size(), cfg.vocab);
    std::set<float> distinct;
    for (float v : logits) {
        ASSERT_FALSE(std::isnan(v));
        ASSERT_FALSE(std::isinf(v));
        distinct.insert(v);
    }
    EXPECT_GT(distinct.size(), cfg.vocab / 2);
}

TEST(TinyTransformer, PromptChangesPrediction)
{
    TinyConfig cfg;
    TinyTransformer m(cfg, 7);
    auto l1 = m.forward(std::vector<std::uint16_t>{1, 2, 3});
    auto l2 = m.forward(std::vector<std::uint16_t>{4, 5, 6});
    EXPECT_NE(l1, l2);
}

// --- evaluation harness --------------------------------------------------------

TEST(Eval, CleanAccuracyNearTarget)
{
    TinyConfig cfg;
    TinyTransformer m(cfg, 11);
    EvalDataset ds = makeDataset(m, "synthetic", 300, 4, 6, 0.6, 21);
    const double acc = evaluate(m, ds);
    EXPECT_NEAR(acc, 0.6, 0.07);
}

TEST(Eval, PerfectAgreementWhenAccuracyOne)
{
    TinyConfig cfg;
    TinyTransformer m(cfg, 13);
    EvalDataset ds = makeDataset(m, "perfect", 50, 4, 6, 1.0, 22);
    EXPECT_DOUBLE_EQ(evaluate(m, ds), 1.0);
}

TEST(Eval, RandomModelScoresNearChance)
{
    TinyConfig cfg;
    TinyTransformer clean(cfg, 15);
    TinyTransformer other(cfg, 16); // unrelated weights
    EvalDataset ds = makeDataset(clean, "chance", 400, 4, 6, 1.0, 23);
    const double acc = evaluate(other, ds);
    EXPECT_NEAR(acc, 0.25, 0.08);
}

TEST(Eval, BinaryDatasetChanceIsHalf)
{
    TinyConfig cfg;
    TinyTransformer clean(cfg, 17);
    TinyTransformer other(cfg, 18);
    EvalDataset ds = makeDataset(clean, "wino", 400, 2, 6, 1.0, 24);
    EXPECT_NEAR(evaluate(other, ds), 0.5, 0.08);
    EXPECT_DOUBLE_EQ(ds.chanceAccuracy(), 0.5);
}

} // namespace
} // namespace camllm::llm
