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
    /**
     * @p seq is the context length in decode mode and the chunk length
     * in prefill mode; @p kv_base is the KV entries already written by
     * earlier prefill chunks (0 for decode and whole-prompt prefill).
     */
    Builder(const ModelConfig &m, std::uint32_t seq, const QuantSpec &q,
            bool prefill = false, std::uint32_t kv_base = 0)
        : m_(m), seq_(seq), kv_base_(kv_base), q_(q), prefill_(prefill)
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
        op.npu_compute_scale = prefill_ ? double(seq_) : 1.0;
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

        // In prefill the same weights multiply every position of the
        // chunk; in decode there is exactly one position. Attention
        // always spans the whole accumulated context.
        const double pos = prefill_ ? double(seq_) : 1.0;
        const std::uint64_t ctx = std::uint64_t(kv_base_) + seq_;

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

        // Attention scores: q . K^T. In decode the K stream comes from
        // DRAM; in prefill position j of the chunk attends causally to
        // kv_base + j + 1 keys, so the chunk's score MACs sum to
        // pos * (2*kv_base + pos + 1) / 2 per attention dimension (2
        // flops per MAC) while K makes one DRAM round trip per chunk
        // (FlashAttention-style tiling keeps the working set on chip).
        // The causal sum telescopes across chunks — splitting a prompt
        // changes only the re-streamed KV bytes and per-chunk drains,
        // never the attention compute charged — and a mid-prompt chunk
        // re-streams the kv_base entries earlier chunks wrote, so its
        // KV load covers ctx, not just the chunk.
        Op score;
        score.kind = OpKind::KvLoadCompute;
        score.name = "attn_score";
        score.layer = l;
        score.kv_bytes = ctx * kvp * act_b;
        score.flops =
            prefill_ ? pos * (2.0 * kv_base_ + pos + 1.0) * double(d)
                     : 2.0 * double(ctx) * double(d);
        score.deps = {q, ap};
        auto sc = add(std::move(score));

        auto sm = sfu("softmax", l,
                      prefill_ ? double(m_.n_heads) * pos *
                                     (2.0 * kv_base_ + pos + 1.0) / 2.0
                               : double(m_.n_heads) * double(ctx),
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
    build(std::uint32_t layers_to_build, bool with_head = true)
    {
        // The token embedding lookup is a single page read; it is
        // negligible next to billions of weight reads and is folded
        // into the first norm.
        const double pos = prefill_ ? double(seq_) : 1.0;
        auto cur = sfu("embed", 0, pos * double(m_.d_model), {});
        for (std::uint32_t l = 0; l < layers_to_build; ++l)
            cur = layer(l, cur);
        // Mid-prompt prefill chunks emit no token: they only deposit
        // KV, so they skip the final norm and the head projection.
        if (with_head) {
            auto fin = sfu("final_norm", layers_to_build - 1,
                           double(m_.d_model), {cur});
            // The lm_head projects only the final position, even in
            // prefill, so its compute scale stays 1.
            auto head = gemv("lm_head", ~std::uint32_t(0), m_.vocab,
                             m_.d_model, {fin});
            g_.ops[head].npu_compute_scale = 1.0;
        }
        g_.n_layers = layers_to_build;
        return std::move(g_);
    }

  private:
    const ModelConfig &m_;
    std::uint32_t seq_;
    std::uint32_t kv_base_;
    QuantSpec q_;
    bool prefill_;
    DecodeGraph g_;
};

} // namespace

DecodeGraph
buildDecodeGraph(const ModelConfig &model, std::uint32_t seq,
                 const QuantSpec &quant, std::uint32_t layers_to_build)
{
    CAMLLM_ASSERT(model.valid(), "invalid model %s", model.name.c_str());
    CAMLLM_ASSERT(layers_to_build > 0 &&
                  layers_to_build <= model.n_layers);
    CAMLLM_ASSERT(seq > 0);
    Builder b(model, seq, quant);
    return b.build(layers_to_build);
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

DecodeGraph
buildPrefillChunkGraph(const ModelConfig &model, std::uint32_t chunk_len,
                       std::uint32_t kv_base, const QuantSpec &quant,
                       std::uint32_t layers_to_build, bool last_chunk)
{
    CAMLLM_ASSERT(model.valid(), "invalid model %s", model.name.c_str());
    CAMLLM_ASSERT(layers_to_build > 0 &&
                  layers_to_build <= model.n_layers);
    CAMLLM_ASSERT(chunk_len > 0);
    Builder b(model, chunk_len, quant, /*prefill=*/true, kv_base);
    return b.build(layers_to_build, /*with_head=*/last_chunk);
}

} // namespace camllm::llm
