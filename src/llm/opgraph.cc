#include "opgraph.h"

#include <algorithm>

#include "common/logging.h"

namespace camllm::llm {

std::uint64_t
DecodeGraph::totalWeightElems() const
{
    std::uint64_t n = 0;
    for (const auto &op : ops)
        if (op.kind == OpKind::GemvWeight)
            n += op.weightElems();
    return n;
}

std::uint64_t
DecodeGraph::totalKvLoadBytes() const
{
    std::uint64_t n = 0;
    for (const auto &op : ops)
        if (op.kind == OpKind::KvLoadCompute)
            n += op.kv_bytes;
    return n;
}

double
DecodeGraph::totalFlops() const
{
    double n = 0.0;
    for (const auto &op : ops) {
        if (op.kind == OpKind::GemvWeight)
            n += 2.0 * double(op.weightElems());
        else
            n += op.flops;
    }
    return n;
}

namespace {

/** Incremental graph builder with named-op dependency helpers. */
class Builder
{
  public:
    Builder(const ModelConfig &m, std::uint32_t kv_base,
            std::uint32_t tokens, const QuantSpec &q)
        : m_(m), kv_base_(kv_base), tokens_(tokens), q_(q)
    {
    }

    std::uint32_t
    add(Op op)
    {
        g_.ops.push_back(std::move(op));
        return std::uint32_t(g_.ops.size() - 1);
    }

    std::uint32_t
    sfu(std::string name, std::uint32_t layer, double elems,
        std::vector<std::uint32_t> deps)
    {
        Op op;
        op.kind = OpKind::Sfu;
        op.name = std::move(name);
        op.layer = layer;
        op.sfu_elems = elems;
        op.flops = elems; // one special op per element, roughly
        op.deps = std::move(deps);
        return add(std::move(op));
    }

    std::uint32_t
    gemv(std::string name, std::uint32_t layer, std::uint64_t rows,
         std::uint64_t cols, std::vector<std::uint32_t> deps)
    {
        Op op;
        op.kind = OpKind::GemvWeight;
        op.name = std::move(name);
        op.layer = layer;
        op.rows = rows;
        op.cols = cols;
        op.npu_compute_scale = double(tokens_);
        op.deps = std::move(deps);
        return add(std::move(op));
    }

    /** One transformer layer; returns its output op index. */
    std::uint32_t
    layer(std::uint32_t l, std::uint32_t input)
    {
        const std::uint64_t d = m_.d_model;
        const std::uint64_t kvp = m_.kvProjDim();
        const std::uint32_t act_b = q_.act_bits / 8;

        // The same weights multiply every position of the unit, and
        // attention spans the whole accumulated context.
        const double pos = double(tokens_);
        const std::uint64_t ctx = std::uint64_t(kv_base_) + tokens_;

        auto ln1 = sfu("ln1", l, pos * double(d), {input});
        auto q = gemv("wq", l, d, d, {ln1});
        auto k = gemv("wk", l, kvp, d, {ln1});
        auto v = gemv("wv", l, kvp, d, {ln1});

        Op append;
        append.kind = OpKind::KvAppend;
        append.name = "kv_append";
        append.layer = l;
        append.kv_bytes = std::uint64_t(pos) * 2ull * kvp * act_b;
        append.deps = {k, v};
        auto ap = add(std::move(append));

        // Attention scores: q . K^T. Position j of the unit attends
        // causally to kv_base + j + 1 keys, its own included, so the
        // unit's score MACs sum to pos * (2*kv_base + pos + 1) / 2 per
        // attention dimension (2 flops per MAC) while K makes one DRAM
        // round trip per unit (FlashAttention-style tiling keeps the
        // working set on chip). The causal sum telescopes across
        // units — splitting a prompt, or decoding token by token,
        // changes only the re-streamed KV bytes and per-unit drains,
        // never the attention compute charged — and the KV load covers
        // the kv_base entries earlier units wrote plus the unit's own.
        Op score;
        score.kind = OpKind::KvLoadCompute;
        score.name = "attn_score";
        score.layer = l;
        score.kv_bytes = ctx * kvp * act_b;
        score.flops = pos * (2.0 * kv_base_ + pos + 1.0) * double(d);
        score.deps = {q, ap};
        auto sc = add(std::move(score));

        auto sm = sfu("softmax", l,
                      double(m_.n_heads) * pos *
                          (2.0 * kv_base_ + pos + 1.0) / 2.0,
                      {sc});

        Op attn_ctx;
        attn_ctx.kind = OpKind::KvLoadCompute;
        attn_ctx.name = "attn_context";
        attn_ctx.layer = l;
        attn_ctx.kv_bytes = ctx * kvp * act_b;
        attn_ctx.flops = score.flops;
        attn_ctx.deps = {sm};
        auto cx = add(std::move(attn_ctx));

        auto o = gemv("wo", l, d, d, {cx});
        auto ln2 = sfu("ln2", l, pos * double(d), {o});

        std::uint32_t ffn_out;
        if (m_.ffn_style == FfnStyle::Gated) {
            auto gate = gemv("w_gate", l, m_.d_ffn, d, {ln2});
            auto up = gemv("w_up", l, m_.d_ffn, d, {ln2});
            auto act = sfu("silu", l, pos * double(m_.d_ffn),
                           {gate, up});
            ffn_out = gemv("w_down", l, d, m_.d_ffn, {act});
        } else {
            auto fc1 = gemv("fc1", l, m_.d_ffn, d, {ln2});
            auto act = sfu("gelu", l, pos * double(m_.d_ffn), {fc1});
            ffn_out = gemv("fc2", l, d, m_.d_ffn, {act});
        }
        return ffn_out;
    }

    DecodeGraph
    build(std::uint32_t layers_to_build, bool with_head)
    {
        // The token embedding lookup is a single page read; it is
        // negligible next to billions of weight reads and is folded
        // into the first norm.
        auto cur = sfu("embed", 0, double(tokens_) * double(m_.d_model),
                       {});
        for (std::uint32_t l = 0; l < layers_to_build; ++l)
            cur = layer(l, cur);
        // A unit that emits no token (a mid-prompt or recompute chunk)
        // only deposits KV, so it skips the final norm and the head.
        if (with_head) {
            auto fin = sfu("final_norm", layers_to_build - 1,
                           double(m_.d_model), {cur});
            // The lm_head projects only the final position, so its
            // compute scale stays 1.
            auto head = gemv("lm_head", ~std::uint32_t(0), m_.vocab,
                             m_.d_model, {fin});
            g_.ops[head].npu_compute_scale = 1.0;
        }
        g_.n_layers = layers_to_build;
        return std::move(g_);
    }

  private:
    const ModelConfig &m_;
    std::uint32_t kv_base_;
    std::uint32_t tokens_;
    QuantSpec q_;
    DecodeGraph g_;
};

} // namespace

DecodeGraph
buildUnitGraph(const ModelConfig &model, std::uint32_t kv_base,
               std::uint32_t tokens, const QuantSpec &quant,
               std::uint32_t layers_to_build, bool with_head)
{
    CAMLLM_ASSERT(model.valid(), "invalid model %s", model.name.c_str());
    CAMLLM_ASSERT(layers_to_build > 0 &&
                  layers_to_build <= model.n_layers);
    CAMLLM_ASSERT(tokens > 0);
    Builder b(model, kv_base, tokens, quant);
    return b.build(layers_to_build, with_head);
}

void
kvSegmentBytes(const KvView &view, std::uint64_t bytes,
               std::uint32_t start_tok, std::uint32_t count,
               std::vector<std::uint64_t> &out)
{
    CAMLLM_ASSERT(count > 0 && bytes > 0);
    const std::uint32_t bt = view.block_tokens;
    if (!view.paged() ||
        start_tok / bt == (start_tok + count - 1) / bt) {
        out.push_back(bytes); // contiguous, or inside one block
        return;
    }
    const std::uint64_t per_tok = bytes / count;
    CAMLLM_ASSERT(per_tok > 0, "KV transfer smaller than its tokens");
    std::uint32_t tok = start_tok;
    std::uint64_t left = bytes;
    while (tok < start_tok + count) {
        const std::uint32_t block_end = (tok / bt + 1) * bt;
        const std::uint32_t n =
            std::min(block_end, start_tok + count) - tok;
        // The final segment absorbs the per-token rounding remainder.
        const std::uint64_t seg = (tok + n == start_tok + count)
                                      ? left
                                      : per_tok * n;
        out.push_back(seg);
        left -= seg;
        tok += n;
    }
}

} // namespace camllm::llm
