/**
 * @file
 * Unified serving scheduler: chunked prefill / decode co-scheduling
 * over one simulated device, with trace-driven arrivals and SLO
 * percentile reporting.
 *
 * Each admitted request is a state machine PREFILL(chunked) → DECODE
 * → DONE driven over a core::DecodeStream: prefill runs as one or
 * more chunks that write KV as they go (the last chunk's head
 * projection emits the request's first token), then every decode step
 * grows the request's KV stream by one. All active streams share the
 * flash channels, the DRAM KV bandwidth, the NPU weight-staging
 * buffer and — when contention is enabled — systolic-array and SFU
 * time through a core::NpuArbiter.
 *
 * Policies:
 *  - DecodeFirstFcfs: FCFS admission; an admitted prompt prefills in
 *    a single whole-prompt chunk. With free NPU arbitration and
 *    decode-only requests this reproduces the recorded golden
 *    decode-only event sequence bit-identically (enforced by tests).
 *    CambriconEngine is a one-request view of this policy.
 *  - ChunkedInterleave: Sarathi-style token budget; prompts prefill
 *    in chunks of at most `prefill_chunk` tokens, so in-flight decode
 *    tokens interleave with prefill on the shared device instead of
 *    stalling behind a monolithic prompt pass.
 *
 * Requests arrive on the sim clock (core::ArrivalTrace); the
 * scheduler admits FCFS into `max_batch` slots as arrivals land and
 * slots retire, and an admitted request starts its first unit on the
 * tick it is admitted. With an SLO target set, an arrival whose
 * projected TTFT busts it is shed instead of admitted. Per-request
 * TTFT and per-token TBT are reported in depth-extrapolated
 * milliseconds with p50/p95/p99 summaries.
 *
 * KV memory is bounded the way a real device bounds it: a
 * core::KvPool divides a configurable DRAM budget into fixed
 * token-blocks, each request maps its KV stream onto a block table
 * (llm::KvView — paged DRAM addressing at block granularity), and
 * admission/steps allocate blocks as KV grows. When the pool is dry a
 * request stalls and the scheduler preempts the lowest-priority
 * (latest-arrived) running request — older requests are deep in
 * decode, so eviction lands on young prefills first, the
 * decode-priority policy. An evicted request loses all its blocks
 * and re-enters PREFILL to recompute them (weights re-stream, tagged
 * flash::WorkClass::Recompute); it resumes only when its full final
 * KV demand fits, which guarantees it never stalls again and the
 * schedule stays livelock-free. With an unbounded budget every
 * capacity effect is off and the event sequence replays the
 * pre-paging scheduler bit-identically.
 *
 * Evicted KV is reusable, not disposable (all off by default):
 *  - kv_swap streams evicted blocks out to a reserved flash KV region
 *    (WorkClass::KvSwap, wear-counted programs) and back on resume,
 *    chosen per block by a recompute-vs-swap cost model — eviction
 *    and resume are block-granular, so one table can mix swapped-in
 *    and recomputed ranges.
 *  - kv_partial_evict sheds only the victim's coldest tail blocks,
 *    shrinking the rebuild bill relative to whole-table eviction.
 *  - kv_prefix_sharing maps a shared system prompt's cached KV blocks
 *    into new tables through a radix tree over KvPool refcounts, so
 *    concurrent users per GB rises with prompt overlap.
 */

#ifndef CAMLLM_CORE_SCHEDULER_H
#define CAMLLM_CORE_SCHEDULER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/arrivals.h"
#include "core/engine.h"
#include "core/presets.h"
#include "core/tiling.h"
#include "flash/fault.h"
#include "llm/model_config.h"

namespace camllm::core {

/** Prefill/decode co-scheduling policy. */
enum class SchedPolicy
{
    DecodeFirstFcfs,  ///< whole-prompt prefill, FCFS slots
    ChunkedInterleave ///< chunked prefill under a token budget
};

/** How one request left the system. */
enum class RequestOutcome : std::uint8_t
{
    Completed = 0,
    TimedOut,           ///< blew its deadline (queued or running)
    Cancelled,          ///< client gave up (ServeRequest::cancel_at)
    ShedSlo,            ///< rejected at admission by the SLO guard
    RejectedInfeasible  ///< KV demand exceeds the whole pool
};

/** One serve() run's knobs. */
struct SchedOptions
{
    std::uint32_t max_batch = 8;
    SchedPolicy policy = SchedPolicy::DecodeFirstFcfs;

    /** Prefill token budget per chunk (ChunkedInterleave only). */
    std::uint32_t prefill_chunk = 512;

    /** Serialize systolic-array/SFU time across streams instead of
     *  overlapping it for free (core::NpuArbiter). */
    bool npu_contention = false;

    /**
     * DRAM bytes reserved for the KV cache (full model depth); 0 =
     * unbounded. An unbounded pool disables every capacity effect —
     * admission, preemption and eviction never trigger, and the event
     * sequence replays the pre-paging scheduler bit-identically
     * (enforced by tests). A bounded budget requires
     * kv_block_tokens >= 1; a request whose final KV demand exceeds
     * the whole budget is rejected at admission
     * (ServeStats::rejected_infeasible). Under pressure the
     * scheduler queues admissions and preempts (see serve()).
     */
    std::uint64_t kv_budget_bytes = 0;

    /**
     * Paged-KV block granularity in tokens; 0 keeps contiguous
     * per-request KV streams. When paged, every KV transfer splits at
     * block boundaries into per-block DRAM requests (a block covering
     * the whole stream is bit-identical to contiguous), and KV
     * capacity is allocated block-wise from the pool.
     */
    std::uint32_t kv_block_tokens = 0;

    // --- KV reuse (all off by default: with the three knobs off every
    //     event sequence replays the evict-and-recompute scheduler
    //     bit-identically; enforced by tests and the CI byte diffs) ----
    /**
     * Swap evicted KV blocks out over the flash channels instead of
     * recomputing them, when the per-block cost model favors it:
     * recompute costs the block's tokens at the measured prefill rate
     * (NPU MACs + contention, via the admission EMA; an NPU-bound
     * MAC estimate before the first sample), swap costs the block's
     * full-depth bytes twice (out now, back on resume) across the
     * alive channel buses at their current occupancy. Swapped blocks
     * program a flash KV region (all the free flash left after the
     * resident weights; wear-counted) and stream
     * back under WorkClass::KvSwap on resume; a full region falls
     * back to recompute. Requires a bounded pool.
     */
    bool kv_swap = false;

    /**
     * Partial (vLLM-style) eviction: release only the victim's
     * coldest tail blocks — last-touch position order, which for an
     * autoregressive KV stream is the tail — until the stalled
     * requester's shortfall is covered, instead of dropping the whole
     * table. The kept head blocks never rebuild; only the shed range
     * recomputes (or swaps back) on resume.
     */
    bool kv_partial_evict = false;

    /**
     * Prefix sharing: a radix tree over prompt prefixes maps the
     * cached KV blocks of a shared leading prompt
     * (ServeRequest::prefix_id/prefix_tokens) into new tables via
     * KvPool::retain, so requests sharing a system prompt skip
     * re-prefilling it. Whole blocks strictly inside the prompt
     * share; eviction respects refcounts (a shared block survives
     * until every table and the cache release it). Requires
     * kv_block_tokens >= 1.
     */
    bool kv_prefix_sharing = false;

    // --- resilience ----------------------------------------------------
    /**
     * Per-request completion deadline measured from arrival, in sim
     * ticks (0 = none). Time base: the sampled-layer sim clock, like
     * ServeRequest::arrival — not the depth-extrapolated time that
     * slo_ttft_ms and every reported TTFT/TBT use, so with
     * sample_layers < n_layers one tick here covers roughly
     * n_layers / sample_layers reported ticks (ROADMAP item 1 moves
     * every time input onto one clock). A request that has not
     * finished by
     * arrival + deadline is torn down wherever it is: a queued
     * request times out without ever running; a running one aborts
     * its in-flight unit (completions drain through the router and
     * are dropped), releases its KV blocks and frees its slot. Either
     * way it lands in ServeStats::timeouts.
     */
    Tick request_deadline = 0;

    /**
     * Target p95 TTFT for SLO-aware admission, in extrapolated
     * milliseconds (0 = off). At each admission the scheduler
     * projects the arrival's TTFT from the measured per-token prefill
     * service rate (an EMA that inflates under retry/degradation
     * load) and the prefill backlog ahead of it; a projection past
     * the target sheds the arrival (it is the newest work in the
     * system, ServeStats::shed_slo) and everyone already admitted
     * keeps full service.
     */
    double slo_ttft_ms = 0.0;

    /**
     * Fault-injection spec forwarded to the flash device: seeded soft
     * read failures, the channel slowdown/offline schedule, and the
     * reliability co-design knobs (per-plane wear tracking +
     * leveling policy, ECC correction strength, retention-refresh
     * rate). Its fault windows and refresh rate run on the
     * sampled-layer sim clock, like request_deadline (see
     * flash::FaultSpec). The default spec injects nothing and leaves
     * the event sequence byte-identical to a fault-free run; model_weight_bytes
     * is filled from the model config if left 0.
     */
    flash::FaultSpec faults;
};

/** Measured results of one served request. */
struct ServeRequestStats
{
    std::uint32_t id = 0;
    std::uint32_t prompt = 0;
    std::uint32_t context = 0;
    std::uint32_t decode_tokens = 0;

    Tick arrival = 0;          ///< sim clock
    Tick admit_tick = 0;       ///< slot taken, first unit started
    Tick first_token_tick = 0; ///< first token emitted (sim clock)
    Tick finish_tick = 0;      ///< last decode step done (sim clock)

    /**
     * Stats of the step that emitted the first token: the last
     * prefill chunk when prompt > 0, else the first decode step
     * (what CambriconEngine reports for a lone request). With
     * batch > 1 the device-wide fields (channel/DRAM bytes,
     * utilization) cover all streams over the step's span.
     */
    TokenStats first_token;

    Tick prefill_time = 0;           ///< sum of extrapolated chunk times
    std::uint32_t prefill_chunks = 0;

    Tick total_token_time = 0; ///< sum of extrapolated decode times
    Tick mean_token_time = 0;  ///< total_token_time / decode_tokens
    double tokens_per_s = 0.0; ///< sequential decode rate under load

    double ttft_ms = 0.0;     ///< queue wait + service to first token
    double mean_tbt_ms = 0.0; ///< mean time between subsequent tokens

    /** How the request left the system. Non-Completed requests keep
     *  whatever partial measurements they accumulated. */
    RequestOutcome outcome = RequestOutcome::Completed;

    /** Tokens actually emitted (first token + decode steps); equals
     *  decode_tokens (+1 when prompt > 0) for completed requests. */
    std::uint32_t tokens_emitted = 0;

    /** Times this request was evicted under KV pressure. */
    std::uint32_t preemptions = 0;

    /** Extrapolated time spent rebuilding evicted KV (prefill
     *  re-runs that emit no tokens). */
    Tick recompute_time = 0;
    std::uint32_t recompute_chunks = 0;

    /** Sim ticks spent stalled or evicted waiting for KV blocks
     *  (swap-in streaming counts here — it is KV-restore wait). */
    Tick kv_blocked_time = 0;

    /** KV blocks streamed back from flash instead of recomputed. */
    std::uint32_t swapped_in_blocks = 0;

    /** Prompt tokens skipped at admission because the prefix tree
     *  mapped their cached KV blocks into this request's table. */
    std::uint32_t prefix_reused_tokens = 0;
};

/** Distribution summary of a latency metric (milliseconds). */
struct LatencySummary
{
    std::uint64_t n = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double max_ms = 0.0;
};

/** Reduce a set of millisecond samples to its LatencySummary. */
LatencySummary summarize(const SampleSet &samples);

/** Aggregate results of one serve() run. */
struct ServeStats
{
    std::vector<ServeRequestStats> requests;
    std::uint32_t max_batch = 0;

    /** Emitted tokens: decode steps plus one first token per
     *  prefilled prompt. */
    std::uint64_t total_tokens = 0;

    /** Last request exit on the sampled-layer sim clock. */
    Tick sim_makespan = 0;

    /** Mean extrapolated/simulated service-time ratio
     *  (~depth/sample). */
    double extrapolation_factor = 1.0;

    /** Kernel events executed by the run's event queue — the
     *  denominator for events/sec reporting at fleet scale. */
    std::uint64_t sim_events = 0;

    /** Steady-state throughput: effective concurrency
     *  (min(max_batch, requests)) times the mean per-request decode
     *  rate, each rate measured under contention and extrapolated to
     *  model depth — "tokens/sec at batch N". */
    double aggregate_tokens_per_s = 0.0;

    /** total_tokens over the depth-extrapolated makespan (includes
     *  ramp-up and drain tails). */
    double finite_run_tokens_per_s = 0.0;

    double avg_channel_util = 0.0; ///< mean over the makespan
    double fairness_jain = 1.0; ///< Jain index over tokens_per_s

    LatencySummary ttft; ///< over requests
    LatencySummary tbt;  ///< over all subsequent-token gaps

    /** Systolic-array occupancy (contended runs; 0 otherwise). */
    double npu_array_util = 0.0;

    /** Channel payload delivered per serving phase. */
    std::uint64_t prefill_channel_bytes = 0;
    std::uint64_t decode_channel_bytes = 0;

    /** Channel payload re-streamed to rebuild evicted KV. */
    std::uint64_t recompute_channel_bytes = 0;

    // --- KV pool (kv_budget_bytes / kv_block_tokens) -------------------
    std::uint32_t preemptions = 0;       ///< evictions across requests
    std::uint64_t recompute_tokens = 0;  ///< KV positions rebuilt

    std::uint64_t kv_blocks_total = 0;   ///< pool capacity (0 = unbounded)
    std::uint64_t kv_blocks_high_water = 0;
    std::uint64_t kv_block_allocs = 0;
    std::uint64_t kv_block_frees = 0;    ///< == allocs after drain audit

    // --- KV reuse (zero unless kv_swap / kv_partial_evict /
    //     kv_prefix_sharing are on) -------------------------------------
    std::uint32_t partial_evictions = 0; ///< evictions that kept head blocks
    std::uint64_t swap_out_blocks = 0;   ///< evicted blocks written to flash
    std::uint64_t swap_in_blocks = 0;    ///< blocks streamed back on resume
    std::uint64_t swap_refused_blocks = 0; ///< region full → recompute
    std::uint64_t kv_swap_channel_bytes = 0; ///< swap in+out bus traffic

    std::uint64_t prefix_hit_blocks = 0;     ///< blocks mapped from the tree
    std::uint64_t prefix_hit_tokens = 0;     ///< prompt tokens never prefilled
    std::uint64_t prefix_inserted_blocks = 0;///< blocks published to the tree
    std::uint64_t prefix_dropped_blocks = 0; ///< cold cache blocks shed

    // --- resilience (all zero on a fault-free, deadline-free run) ------
    /** Requests that entered a serving slot. */
    std::uint32_t admitted = 0;

    /** Requests that ran to completion. completed + shed_slo +
     *  timeouts + cancelled + rejected_infeasible == requests.size()
     *  (asserted after the drain audit). */
    std::uint32_t completed = 0;
    std::uint32_t shed_slo = 0;
    std::uint32_t timeouts = 0;
    std::uint32_t cancelled = 0;
    std::uint32_t rejected_infeasible = 0;

    /** Tokens emitted by *completed* requests per extrapolated
     *  second — throughput that honored the contract, the metric
     *  faults degrade. */
    double goodput_tokens_per_s = 0.0;

    // --- flash fault layer ---------------------------------------------
    std::uint64_t read_retries = 0;      ///< escalated re-senses
    std::uint64_t retry_channel_bytes = 0; ///< failed-page bus traffic
    std::uint64_t remap_bytes = 0;       ///< dead-channel rebuild I/O
    std::uint32_t channels_lost = 0;
    std::uint64_t reissued_jobs = 0;     ///< stranded jobs re-run

    // --- reliability co-design (zero unless the spec arms it) ----------
    std::uint64_t refresh_pages = 0;         ///< pages scrubbed
    std::uint64_t refresh_channel_bytes = 0; ///< scrub read+write I/O
    /** Scrub beats the closed-loop scrubber deferred because the
     *  previous op was still in flight (rate above capacity). */
    std::uint64_t refresh_deferred_beats = 0;
    double wear_spread_pe = 0.0; ///< max-min per-plane effective P/E
    double wear_mean_pe = 0.0;
};

/** Multi-request prefill + decode co-scheduling simulation. */
class Scheduler
{
  public:
    /** Fatal when the config or model is invalid, or when the model's
     *  weights do not fit the flash device (the KV cache lives in
     *  DRAM, not here). */
    Scheduler(const CamConfig &config, const llm::ModelConfig &model);

    /**
     * Serve @p requests (arrival-ordered) under @p opt. Deterministic:
     * same inputs give bit-identical stats on any host/thread count.
     */
    ServeStats serve(const std::vector<ServeRequest> &requests,
                     const SchedOptions &opt) const;

    /** serve() over a trace's requests. */
    ServeStats
    serve(const ArrivalTrace &trace, const SchedOptions &opt) const
    {
        return serve(trace.requests(), opt);
    }

    const CamConfig &config() const { return config_; }
    const llm::ModelConfig &model() const { return model_; }

    /** Memoized tile plans shared by every serve() call. */
    const PlanCache &planCache() const { return *plan_cache_; }

  private:
    CamConfig config_;
    llm::ModelConfig model_;
    std::unique_ptr<PlanCache> plan_cache_;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_SCHEDULER_H
