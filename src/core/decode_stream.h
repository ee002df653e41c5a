/**
 * @file
 * One request's unit driver over shared simulation resources.
 *
 * A unit is one prefill chunk, one KV-recompute chunk or one decode
 * step; startUnit() runs one at a time per stream. The stream builds
 * the unit's op graph, issues read-compute tiles and page reads tagged
 * with its flash ClientId and the unit's WorkClass, reacts to tagged
 * completions, and measures the unit as one TokenStats: it snapshots
 * the additive counters at the unit's start and at two interior layer
 * boundaries, and subtracts and extrapolates those snapshots to the
 * model's full depth. The event queue, DRAM model, flash system, NPU
 * arbiter and plan cache are shared: `core::Scheduler` runs one stream
 * per request over one device, and CambriconEngine is a batch of one
 * through it.
 */

#ifndef CAMLLM_CORE_DECODE_STREAM_H
#define CAMLLM_CORE_DECODE_STREAM_H

#include <cstdint>
#include <functional>
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

/** Per-request unit driver over shared co-simulation resources. */
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

    /**
     * One unit of device work: `tokens` positions written on top of
     * `kv_base` KV entries already resident. A decode step at
     * context n is (Decode, n, 1); a prefill or recompute chunk is
     * chunk_len prompt positions at the KV its earlier chunks wrote.
     * The class tags every flash transfer the unit submits, so
     * re-streamed recompute weights are accounted apart from
     * first-pass prefill.
     */
    struct Unit
    {
        flash::WorkClass cls = flash::WorkClass::Decode;
        std::uint32_t kv_base = 0;
        std::uint32_t tokens = 1;
        /** The unit ends with the head projection and emits a token:
         *  every decode step and a prompt's last chunk, never a
         *  recompute chunk. */
        bool emits_token = true;
    };

    /** Fires when a unit completes, with its (extrapolated) stats.
     *  In batch mode the byte/utilization counters cover the whole
     *  device over the unit's span, not only this stream's share. */
    using TokenDone = std::function<void(const TokenStats &)>;

    /**
     * Connects a completion port on env.fs. @p kv_view is the
     * request's KV addressing: a contiguous view issues each
     * attention/append transfer as one DRAM burst; a paged view splits
     * every KV transfer at block boundaries into one DRAM request per
     * touched block (the block-table indirection of a paged KV cache).
     * A block that covers the whole stream reproduces the contiguous
     * sequence bit-identically.
     */
    DecodeStream(const Env &env, llm::KvView kv_view);

    DecodeStream(const DecodeStream &) = delete;
    DecodeStream &operator=(const DecodeStream &) = delete;

    /**
     * Begin @p unit at the current tick. Every unit appends its own
     * K/V and attends causally over kv_base + tokens entries
     * (llm::buildUnitGraph). Where its GeMVs run follows its class: a
     * prefill-class unit (Prefill, Recompute) runs its batched GeMMs
     * wholly on the NPU, a decode step splits each GeMV between flash
     * and NPU by the hybrid tile plan. @p done fires from inside the
     * simulation when the unit's last op completes.
     */
    void startUnit(const Unit &unit, TokenDone done);

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

    bool prefillMode() const
    {
        return unit_.cls != flash::WorkClass::Decode;
    }
    bool contendedNpu() const;
    /** Fills and returns kv_segs_ (per-stream scratch: the KV DRAM
     *  paths stay allocation-free after warmup, per the PR 1 hot-path
     *  contract). Valid until the next call on this stream. */
    const std::vector<std::uint64_t> &kvSegmentsFor(const llm::Op &op);
    void issueKvDram(std::uint32_t id,
                     const std::vector<std::uint64_t> &segs,
                     std::function<void()> done);
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
    void finishUnit();
    /** The additive counters now: device-wide bytes, pages and busy
     *  ticks, this stream's flops and weight bytes, and the tick. */
    TokenStats capture() const;

    Env env_;
    llm::QuantSpec quant_;
    flash::ClientId client_ = 0;
    const llm::KvView kv_view_;
    std::vector<std::uint64_t> kv_segs_; ///< kvSegmentsFor scratch

    Unit unit_; ///< the unit in flight
    TokenDone done_;
    bool done_ops_all_ = true;
    bool aborted_ = false;

    llm::DecodeGraph graph_;
    std::vector<OpState> st_;
    std::vector<std::vector<std::uint32_t>> dependents_;

    // Steady-state extrapolation reads the counters at the ends of
    // sampled layers k-3 and k-2 (the last sampled layer also holds
    // the final norm). -1 when the unit simulates the full depth.
    std::int64_t snap_op_lo_ = -1; ///< last op of layer k-3
    std::int64_t snap_op_hi_ = -1; ///< last op of layer k-2
    TokenStats snap_lo_;
    TokenStats snap_hi_;

    std::vector<std::uint32_t> gemv_order_;
    std::size_t prefetch_next_ = 0;
    std::uint64_t outstanding_read_bytes_ = 0;
    std::uint64_t read_budget_ = 0;

    std::uint32_t rr_read_channel_ = 0;
    std::uint32_t ops_done_ = 0;
    TokenStats start_; ///< capture() at the unit's first tick

    /** This stream's own running counters since construction: only
     *  npu_flops, flash_flops and the weight_bytes_* fields are set. */
    TokenStats own_;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_DECODE_STREAM_H
