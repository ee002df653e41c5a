/**
 * @file
 * One request's decode (or prefill) driver over shared simulation
 * resources.
 *
 * The stream owns the op-graph scheduling state for a single request:
 * it builds the token's graph, issues read-compute tiles and page
 * reads tagged with its flash ClientId, reacts to tagged completions,
 * and extrapolates the sampled layers to the model's full depth. The
 * event queue, DRAM model, flash system, NPU arbiter and plan cache
 * are shared: `core::Scheduler` runs one stream per request over one
 * device, and CambriconEngine is a batch of one through it.
 */

#ifndef CAMLLM_CORE_DECODE_STREAM_H
#define CAMLLM_CORE_DECODE_STREAM_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/engine.h"
#include "core/presets.h"
#include "core/tiling.h"
#include "flash/flash_system.h"
#include "llm/opgraph.h"
#include "npu/dram.h"
#include "sim/event_queue.h"

namespace camllm::core {

class NpuArbiter;

/** Snapshot of every additive counter (for layer extrapolation). */
struct StreamCounters
{
    Tick t = 0;
    double busy_sum = 0.0; ///< sum of channel busy ticks
    std::uint64_t ch_high = 0;
    std::uint64_t ch_low = 0;
    std::uint64_t dram_bytes = 0;
    std::uint64_t array_reads = 0;
    std::uint64_t pages_computed = 0;
    std::uint64_t pages_read = 0;
    double npu_flops = 0.0;
    double flash_flops = 0.0;
    std::uint64_t wb_flash = 0;
    std::uint64_t wb_npu = 0;

    StreamCounters operator-(const StreamCounters &o) const;
    void addScaled(const StreamCounters &d, std::uint64_t k);
};

/** Per-request decode driver over shared co-simulation resources. */
class DecodeStream
{
  public:
    /** Shared simulation environment; every pointer is required and
     *  must outlive the stream. Every stream of a serve() run shares
     *  one Env set. */
    struct Env
    {
        const CamConfig *cfg = nullptr;
        const llm::ModelConfig *model = nullptr;
        const PlanCache *plans = nullptr;
        EventQueue *eq = nullptr;
        npu::DramModel *dram = nullptr;
        flash::FlashSystem *fs = nullptr;

        /**
         * Shared-NPU occupancy arbiter. When contended, the stream
         * reserves systolic-array and SFU time through it instead of
         * overlapping with its neighbors for free; a free arbiter
         * keeps the historical infinitely-parallel NPU bit-exactly.
         */
        NpuArbiter *npu = nullptr;
    };

    /** Fires when a token completes, with its (extrapolated) stats.
     *  In batch mode the byte/utilization counters cover the whole
     *  device over the token's span, not only this stream's share. */
    using TokenDone = std::function<void(const TokenStats &)>;

    /** Connects a completion port on env.fs. */
    explicit DecodeStream(const Env &env);

    DecodeStream(const DecodeStream &) = delete;
    DecodeStream &operator=(const DecodeStream &) = delete;

    /**
     * Begin one decode step at the current tick. @p seq is the
     * request's context length. @p done fires from inside the
     * simulation when the token's last op completes. One token may be
     * in flight per stream.
     */
    void startToken(std::uint32_t seq, TokenDone done);

    /**
     * Begin one chunk of a chunked prefill at the current tick:
     * @p chunk_len prompt positions on top of @p kv_base KV entries
     * earlier chunks wrote. The chunk appends its own K/V to DRAM as
     * it goes; only the last chunk (@p last_chunk) runs the head
     * projection and emits the request's first token. A single chunk
     * covering the whole prompt with kv_base == 0 is the one-shot
     * prefill.
     */
    void startPrefillChunk(std::uint32_t chunk_len,
                           std::uint32_t kv_base, bool last_chunk,
                           TokenDone done);

    /** True between startToken() and its done callback. */
    bool busy() const { return !done_ops_all_; }

    /**
     * Abandon the stream mid-unit (request cancelled or timed out).
     * The completion port is torn down — records already queued in
     * the CompletionRouter and everything the device still produces
     * for this client are dropped, never delivered — and every
     * deferred callback (DRAM joins, NPU grants, drain tails) becomes
     * a no-op, since the EventQueue cannot cancel events. The done
     * callback is released without firing. The stream must not be
     * started again; device work already submitted keeps draining and
     * charging the shared resources it occupies, like a real
     * cancelled request's in-flight I/O.
     */
    void abortUnit();

    /**
     * Cap on this stream's in-flight NPU read bytes (the prefetch
     * window). Defaults to the full NPU weight buffer; the scheduler
     * divides the buffer across active streams.
     */
    void setReadBudget(std::uint64_t bytes) { read_budget_ = bytes; }

    /**
     * KV addressing mode for this request's stream. The default
     * contiguous view issues each attention/append transfer as one
     * DRAM burst (the historical behavior, bit-exact). A paged view
     * splits every KV transfer at block boundaries into one DRAM
     * request per touched block — the block-table indirection of a
     * paged KV cache, which pays per-block DRAM latency and
     * interleaves with neighbors at block granularity. A block that
     * covers the whole stream reproduces the contiguous sequence
     * bit-identically. Takes effect from the next unit.
     */
    void setKvView(llm::KvView view) { kv_view_ = view; }

    /**
     * Override the WorkClass tag on submitted flash work (set by the
     * scheduler while KV-recompute prefill chunks run, so re-streamed
     * weight traffic is accounted apart from first-pass prefill).
     * std::nullopt restores phase-derived tagging.
     */
    void setWorkClass(std::optional<flash::WorkClass> cls)
    {
        class_override_ = cls;
    }

  private:
    /** Per-op scheduling state. */
    struct OpState
    {
        std::uint32_t remaining_deps = 0;
        std::uint64_t rc_remaining = 0;
        std::uint64_t read_remaining = 0;
        std::uint64_t read_total = 0;
        Tick ready_tick = 0; ///< when dependencies were satisfied
        std::uint8_t join_remaining = 0; ///< contended DRAM+array join
        std::uint32_t dram_remaining = 0; ///< paged-KV segment joins
        bool ready = false;
        bool rc_issued = false;
        bool reads_issued = false;
        bool completed = false;
    };

    bool prefillMode() const { return prefill_tokens_ > 0; }
    bool contendedNpu() const;
    flash::WorkClass workClass() const
    {
        if (class_override_)
            return *class_override_;
        return prefillMode() ? flash::WorkClass::Prefill
                             : flash::WorkClass::Decode;
    }
    /** Fills and returns kv_segs_ (per-stream scratch: the KV DRAM
     *  paths stay allocation-free after warmup, per the PR 1 hot-path
     *  contract). Valid until the next call on this stream. */
    const std::vector<std::uint64_t> &kvSegmentsFor(const llm::Op &op);
    void issueKvDram(std::uint32_t id,
                     const std::vector<std::uint64_t> &segs,
                     std::function<void()> done);
    void beginUnit(TokenDone done);
    const TilePlan &planFor(std::uint64_t rows, std::uint64_t cols) const
    {
        return env_.plans->planFor(rows, cols);
    }
    std::uint32_t elemsPerPage() const
    {
        return env_.plans->elemsPerPage();
    }
    std::uint64_t npuRows(const TilePlan &plan) const;

    void onCompletion(const flash::Completion &c);
    void opReady(std::uint32_t id);
    void issueGemv(std::uint32_t id);
    void issueReads(std::uint32_t id, const TilePlan &plan);
    void maybeCompleteGemv(std::uint32_t id);
    void complete(std::uint32_t id);
    void tryPrefetch();
    void finishToken();
    StreamCounters capture() const;

    Env env_;
    llm::QuantSpec quant_;
    flash::ClientId client_ = 0;
    llm::KvView kv_view_; ///< contiguous unless the scheduler pages
    std::optional<flash::WorkClass> class_override_;
    std::vector<std::uint64_t> kv_segs_; ///< kvSegmentsFor scratch

    std::uint32_t seq_ = 0;
    std::uint32_t prefill_tokens_ = 0;
    std::uint32_t kv_base_ = 0;  ///< KV written by earlier chunks
    bool last_chunk_ = true;     ///< head projection present
    TokenDone done_;
    bool done_ops_all_ = true;
    bool aborted_ = false;

    llm::DecodeGraph graph_;
    bool graph_is_decode_ = false; ///< decode graph cached for rebind
    std::vector<OpState> st_;
    std::vector<std::vector<std::uint32_t>> dependents_;
    std::vector<std::int64_t> layer_last_;
    std::vector<StreamCounters> layer_snaps_;

    std::vector<std::uint32_t> gemv_order_;
    std::size_t prefetch_next_ = 0;
    std::uint64_t outstanding_read_bytes_ = 0;
    std::uint64_t read_budget_ = 0;

    std::uint32_t rr_read_channel_ = 0;
    std::uint32_t ops_done_ = 0;
    Tick token_start_ = 0;
    Tick end_tick_ = 0;
    StreamCounters start_;

    double npu_flops_ = 0.0;
    double flash_flops_ = 0.0;
    std::uint64_t wb_flash_ = 0;
    std::uint64_t wb_npu_ = 0;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_DECODE_STREAM_H
