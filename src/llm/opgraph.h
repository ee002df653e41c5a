/**
 * @file
 * Operation graph for one unit of device work: `tokens` positions
 * written on top of `kv_base` KV entries already resident. A decode
 * step is a one-token unit at kv_base = its context; a prefill or
 * recompute chunk is its chunk of prompt positions.
 *
 * Mirrors Figure 5 of the paper: GeMV operations that read model
 * weights are co-computed by NPU + flash; attention operations over
 * the KV cache run on the NPU against DRAM; softmax / norms /
 * activations run on the NPU's special function unit.
 */

#ifndef CAMLLM_LLM_OPGRAPH_H
#define CAMLLM_LLM_OPGRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "llm/model_config.h"
#include "llm/quant.h"

namespace camllm::llm {

/** Hardware class an operation maps to (paper Fig 5 boxes). */
enum class OpKind
{
    GemvWeight,    ///< weight GeMV: NPU + flash co-computation
    KvLoadCompute, ///< attention score/context: NPU + DRAM
    KvAppend,      ///< write the new K/V entries to DRAM
    Sfu            ///< softmax / norm / activation on the SFU
};

/** One node of a unit's graph. */
struct Op
{
    OpKind kind = OpKind::Sfu;
    std::string name;
    std::uint32_t layer = 0; ///< owning layer, or UINT32_MAX for head

    // GemvWeight: weight matrix is rows x cols (output x input).
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;

    // KvLoadCompute / KvAppend.
    std::uint64_t kv_bytes = 0;
    double flops = 0.0;

    // Sfu.
    double sfu_elems = 0.0;

    /**
     * NPU-compute multiplier for GemvWeight ops: the unit's token
     * count (weights stream once but multiply against every position
     * of the unit); 1 for the lm_head, which projects only the last.
     */
    double npu_compute_scale = 1.0;

    std::vector<std::uint32_t> deps; ///< indices of producer ops

    std::uint64_t weightElems() const { return rows * cols; }
};

/** One unit's op graph plus summary accessors. */
struct DecodeGraph
{
    std::vector<Op> ops;
    std::uint32_t n_layers = 0; ///< layers materialized in the graph

    /** Sum of weight elements over all GemvWeight ops. */
    std::uint64_t totalWeightElems() const;

    /** Total KV bytes loaded from DRAM. */
    std::uint64_t totalKvLoadBytes() const;

    /** Total floating ops across all op kinds (2 ops per MAC). */
    double totalFlops() const;

    /** Index of the last op (the lm_head projection). */
    std::uint32_t lastOp() const
    {
        return std::uint32_t(ops.size() - 1);
    }
};

/**
 * Build the graph of one unit: @p tokens positions processed on top
 * of @p kv_base tokens whose K/V entries earlier units already wrote,
 * for @p layers_to_build layers of @p model (a sample of identical
 * layers the stream extrapolates; model.n_layers for the full graph).
 * The weight GeMVs stream each matrix once and multiply it against
 * every position (npu_compute_scale = tokens); the unit appends its
 * own KV entries and attends causally over kv_base + tokens, so
 * position j of the unit scores kv_base + j + 1 keys, its own
 * included; SFU work scales with the tokens. Only a unit that emits a
 * token (@p with_head: every decode step and a prompt's last chunk)
 * ends with the final norm and the lm_head projection. A decode step
 * at context n is (kv_base n, tokens 1); a whole prompt in one chunk
 * is (kv_base 0, tokens prompt).
 */
DecodeGraph buildUnitGraph(const ModelConfig &model, std::uint32_t kv_base,
                           std::uint32_t tokens, const QuantSpec &quant,
                           std::uint32_t layers_to_build,
                           bool with_head = true);

/**
 * Block-table view of one request's KV stream. With block_tokens == 0
 * the stream is contiguous (one giant block): every KV transfer is a
 * single DRAM burst, the historical addressing. With block_tokens > 0
 * the logical token axis is paged: a transfer covering tokens
 * [start, start + count) is split at block boundaries into one DRAM
 * request per touched block, so scattered pages pay per-request DRAM
 * latency instead of streaming as one burst. A block large enough to
 * hold the whole stream degenerates to the contiguous case exactly.
 */
struct KvView
{
    std::uint32_t block_tokens = 0; ///< 0 = contiguous stream

    bool paged() const { return block_tokens != 0; }
};

/**
 * Partition a KV transfer of @p bytes covering logical tokens
 * [@p start_tok, @p start_tok + @p count) into per-block DRAM segment
 * sizes under @p view, appended to @p out. Bytes are apportioned
 * per token (bytes / count each, remainder on the last segment), so
 * the segment sum is always exactly @p bytes. A contiguous view (or a
 * range inside one block) yields a single segment, which is what
 * keeps the one-giant-block path bit-identical to contiguous KV.
 */
void kvSegmentBytes(const KvView &view, std::uint64_t bytes,
                    std::uint32_t start_tok, std::uint32_t count,
                    std::vector<std::uint64_t> &out);

} // namespace camllm::llm

#endif // CAMLLM_LLM_OPGRAPH_H
