#include "scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"
#include "core/decode_stream.h"
#include "core/kv_pool.h"
#include "core/npu_arbiter.h"
#include "core/prefix_tree.h"
#include "flash/flash_system.h"
#include "npu/dram.h"
#include "sim/event_queue.h"

namespace camllm::core {

LatencySummary
summarize(const SampleSet &s)
{
    LatencySummary out;
    out.n = s.count();
    out.p50_ms = s.percentile(50.0);
    out.p95_ms = s.percentile(95.0);
    out.p99_ms = s.percentile(99.0);
    out.mean_ms = s.mean();
    out.max_ms = s.max();
    return out;
}

namespace {

std::uint64_t
finalKvTokens(const ServeRequest &s)
{
    return std::uint64_t(s.context) + s.prompt + s.decode_tokens;
}

struct ReqRun
{
    ServeRequest spec;
    std::unique_ptr<DecodeStream> stream;
    ServeRequestStats stats;
    std::uint32_t prefill_done = 0; ///< prompt tokens prefilled
    std::uint32_t tokens_done = 0;  ///< decode steps completed
    DecodeStream::Unit unit;        ///< the unit in flight
    Tick token_start = 0;
    Tick sim_token_sum = 0; ///< simulated (un-extrapolated) time
    bool finished = false;

    // --- KV pool state -------------------------------------------------
    KvBlockTable kv;
    bool admitted = false;
    bool stalled = false;   ///< at a boundary, pool dry
    bool preempted = false; ///< evicted, waiting to resume
    bool preempt_pending = false; ///< evict at next step end
    bool resumed = false;   ///< holds a full reservation
    bool first_emitted = false;

    // Block-granular rebuild state after an eviction. Coverage
    // [0, rebuild_from) is resident (kept by partial eviction or
    // already restored); [rebuild_from, rebuild_target) rebuilds left
    // to right — swap-mask blocks stream back from flash, the rest
    // recompute as Recompute-tagged prefill chunks. With every
    // KV-reuse knob off this degenerates to the legacy whole-table
    // recompute (from 0, nothing masked).
    std::uint32_t rebuild_from = 0;   ///< tokens restored so far
    std::uint32_t rebuild_target = 0; ///< coverage to restore
    std::uint32_t recompute_pending = 0; ///< unswapped rebuild tokens
    std::uint32_t swapped_out_tokens = 0; ///< flash copies not yet back
    std::vector<std::uint8_t> swap_mask; ///< block idx → copy in flash
    Tick blocked_since = 0;
    Tick blocked_pre_ft = 0;    ///< KV-blocked sim before 1st token
    Tick recompute_pre_ft = 0;  ///< recompute service before it
};

/**
 * One serve() call: the shared device, the KV pool and prefix tree,
 * every request's run state, and the ServeStats being built. The
 * member functions are the scheduler's event handlers and call each
 * other directly — a retirement frees capacity that resumes or admits
 * waiters, an eviction wakes the stalled requester, a teardown of a
 * queued request re-runs admission.
 */
class ServeRun
{
  public:
    ServeRun(const CamConfig &config, const llm::ModelConfig &model,
             const PlanCache &plans,
             const std::vector<ServeRequest> &requests,
             const SchedOptions &opt)
        : config_(config), model_(model), opt_(opt),
          quant_(llm::QuantSpec::of(config.quant)),
          // The KV pool bounds DRAM KV capacity at full model depth:
          // one block holds block_tokens positions of K+V across
          // every layer.
          token_kv_bytes_(std::uint64_t(model.kvDim()) *
                          (quant_.act_bits / 8) * model.n_layers),
          // The sampled-layer share of a token's KV — what one swap
          // transfer actually moves on the sim clock, matching the
          // depth convention of every other transfer in the run.
          token_kv_sim_bytes_(
              std::uint64_t(model.kvDim()) * (quant_.act_bits / 8) *
              std::min(model.n_layers, config.sample_layers)),
          pool_(opt.kv_budget_bytes, opt.kv_block_tokens,
                std::uint64_t(opt.kv_block_tokens) * token_kv_bytes_),
          tree_(pool_), dram_(eq_, config.npu),
          fs_(eq_, config.flash, config.tile_window, config.slicing),
          npu_(eq_, opt.npu_contention),
          env_{.cfg = &config, .model = &model, .plans = &plans,
               .eq = &eq_, .dram = &dram_, .fs = &fs_, .npu = &npu_},
          runs_(requests.size())
    {
        // Fault injection: arm the spec on the device before anything
        // runs. An inactive spec arms nothing, so the fault-free event
        // sequence is byte-identical to a run without this block.
        flash::FaultSpec faults = opt.faults;
        if (faults.any()) {
            if (faults.model_weight_bytes == 0)
                faults.model_weight_bytes =
                    quant_.weightBytes(model.totalParams());
            fs_.armFaults(faults);
        }

        // KV swap-to-flash: reserve the flash KV region (reusing the
        // fault layer's placement map when one exists). Nothing here
        // runs when the knob is off, so the no-swap event sequence is
        // untouched.
        if (opt.kv_swap)
            fs_.enableKvSwap(quant_.weightBytes(model.totalParams()));

        // Identity fields are filled for every request up front — a
        // request that is rejected, shed or cancelled before admission
        // still lands in ServeStats with valid shape fields.
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            ReqRun &r = runs_[i];
            r.spec = requests[i];
            r.stats.id = std::uint32_t(i);
            r.stats.prompt = r.spec.prompt;
            r.stats.context = r.spec.context;
            r.stats.decode_tokens = r.spec.decode_tokens;
            r.stats.arrival = r.spec.arrival;
        }
    }

    ServeStats run()
    {
        // Deadlines and user cancellations are pre-scheduled (the
        // trace is known): a fired event on a finished run is a no-op.
        // With neither armed and no faults, nothing extra enters the
        // queue and the event sequence is bit-identical to the
        // pre-resilience scheduler.
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            const ServeRequest &spec = runs_[i].spec;
            if (opt_.request_deadline > 0)
                eq_.schedule(spec.arrival + opt_.request_deadline,
                             [this, i] {
                                 killRun(i, RequestOutcome::TimedOut);
                             });
            if (spec.cancel_at > 0)
                eq_.schedule(spec.cancel_at, [this, i] {
                    killRun(i, RequestOutcome::Cancelled);
                });
        }

        admit();
        eq_.run();
        CAMLLM_ASSERT(exited() == runs_.size(),
                      "request accounting out of balance: %u completed "
                      "+ %u shed + %u timed out + %u cancelled + %u "
                      "rejected != %zu requests",
                      out_.completed, out_.shed_slo, out_.timeouts,
                      out_.cancelled, out_.rejected_infeasible,
                      runs_.size());
        // Drain audit: every retire released its whole block table,
        // the prefix cache returns its refs, every outstanding ref is
        // gone (leakedBlocks alone would miss a leaked extra ref on a
        // shared block), and the device's own audit: every swap-in and
        // scrub read landed and the flash KV region is empty.
        tree_.releaseAll();
        CAMLLM_ASSERT(pool_.leakedBlocks() == 0,
                      "%llu KV blocks leaked at drain",
                      (unsigned long long)pool_.leakedBlocks());
        CAMLLM_ASSERT(pool_.leakedRefs() == 0,
                      "%llu KV block refs leaked at drain",
                      (unsigned long long)pool_.leakedRefs());
        CAMLLM_ASSERT(pool_.allocCount() == pool_.freeCount());
        fs_.checkDrained();
        assembleStats();
        return std::move(out_);
    }

  private:
    const CamConfig &config_;
    const llm::ModelConfig &model_;
    const SchedOptions &opt_;
    const llm::QuantSpec quant_;
    const std::uint64_t token_kv_bytes_;
    const std::uint64_t token_kv_sim_bytes_;
    KvPool pool_;
    PrefixTree tree_;

    // The shared device; CambriconEngine's single-request calls run
    // on this same assembly.
    EventQueue eq_;
    npu::DramModel dram_;
    flash::FlashSystem fs_;
    NpuArbiter npu_;

    DecodeStream::Env env_; ///< every stream's shared device
    std::vector<ReqRun> runs_;
    ServeStats out_; ///< counters accumulate here as the run goes

    std::size_t next_admit_ = 0;
    std::uint32_t active_ = 0;
    bool wake_pending_ = false;
    SampleSet tbt_ms_;

    // SLO admission control state: an EMA of depth-extrapolated
    // milliseconds per prefill token, sampled from every finished
    // prefill/recompute chunk. Zero until the first chunk lands, so
    // the first admissions are never shed blind.
    double prefill_ms_per_tok_ = 0.0;

    // --- run lifecycle -------------------------------------------------

    // The NPU weight-staging buffer is one physical resource; divide
    // the prefetch window across however many streams are active.
    void rebudget()
    {
        const std::uint64_t budget =
            config_.npu.weight_buffer_bytes /
            std::max<std::uint32_t>(1, active_);
        for (ReqRun &r : runs_)
            if (r.stream && !r.finished)
                r.stream->setReadBudget(budget);
    }

    // Give up an active slot. Budget the survivors for the new
    // concurrency BEFORE any woken waiter issues work (admit()/resume
    // rebudget again if they change the count).
    void releaseSlot()
    {
        CAMLLM_ASSERT(active_ > 0);
        --active_;
        rebudget();
    }

    std::size_t exited() const
    {
        return std::size_t(out_.completed) + out_.shed_slo +
               out_.timeouts + out_.cancelled + out_.rejected_infeasible;
    }

    // The one exit: every request leaves the system here, exactly
    // once, whatever its outcome. The makespan is the last exit. The
    // retention scrubber self-reschedules forever; once the last
    // request has left it must stop so the event queue can drain.
    void retire(std::size_t i, RequestOutcome why)
    {
        ReqRun &r = runs_[i];
        r.finished = true;
        r.stats.outcome = why;
        r.stats.finish_tick = eq_.now();
        out_.sim_makespan = std::max(out_.sim_makespan, eq_.now());
        switch (why) {
        case RequestOutcome::Completed: ++out_.completed; break;
        case RequestOutcome::TimedOut: ++out_.timeouts; break;
        case RequestOutcome::Cancelled: ++out_.cancelled; break;
        case RequestOutcome::ShedSlo: ++out_.shed_slo; break;
        case RequestOutcome::RejectedInfeasible:
            ++out_.rejected_infeasible;
            break;
        }
        if (exited() == runs_.size())
            fs_.stopRefresh();
    }

    // Bill the span since @p since as KV-blocked time (before the
    // first token it also counts toward TTFT).
    void addBlocked(ReqRun &r, Tick since)
    {
        const Tick span = eq_.now() - since;
        r.stats.kv_blocked_time += span;
        if (!r.first_emitted)
            r.blocked_pre_ft += span;
    }

    void unstall(ReqRun &r)
    {
        if (r.stalled) {
            r.stalled = false;
            addBlocked(r, r.blocked_since);
        }
    }

    // Tear a request down wherever it stands — queued, prefilling,
    // decoding, stalled or evicted. An in-flight unit is abandoned
    // through DecodeStream::abortUnit(): its completion port drops
    // queued and future records, and the device work it already
    // submitted keeps draining (and charging the channels) like a
    // real cancelled request's in-flight I/O. KV blocks are released
    // immediately and the freed capacity wakes waiters on this tick.
    void killRun(std::size_t i, RequestOutcome why)
    {
        ReqRun &r = runs_[i];
        if (r.finished)
            return; // completed (or already torn down) first
        retire(i, why);
        if (!r.admitted) {
            // Still queued: holds no blocks and no stream. It may be
            // the head of the admission queue — re-run admission so
            // the queue can advance past it.
            admit();
            return;
        }
        const bool was_active = !r.preempted;
        unstall(r);
        r.preempted = false;
        r.preempt_pending = false;
        if (r.stream)
            r.stream->abortUnit();
        // Swapped-out copies die with their owner; a swap-in run
        // still in flight already returned its quota when it was
        // issued, and its completion is dropped on the finished run.
        if (r.swapped_out_tokens > 0) {
            fs_.kvSwapFree(std::uint64_t(r.swapped_out_tokens) *
                           token_kv_bytes_);
            r.swapped_out_tokens = 0;
        }
        pool_.release(r.kv);
        if (was_active)
            releaseSlot();
        onFree();
    }

    void noteChunkRate(const TokenStats &s, std::uint32_t chunk)
    {
        if (chunk == 0)
            return;
        const double ms =
            double(s.token_time) / double(kMs) / double(chunk);
        prefill_ms_per_tok_ = prefill_ms_per_tok_ == 0.0
                                  ? ms
                                  : 0.7 * prefill_ms_per_tok_ + 0.3 * ms;
    }

    // The one completion handler: account the unit that just landed
    // by its class, then take the request's next step.
    void onUnitDone(std::size_t i, const TokenStats &s)
    {
        ReqRun &r = runs_[i];
        const DecodeStream::Unit u = r.unit;
        r.sim_token_sum += eq_.now() - r.token_start;
        switch (u.cls) {
        case flash::WorkClass::Prefill:
            r.stats.prefill_time += s.token_time;
            ++r.stats.prefill_chunks;
            noteChunkRate(s, u.tokens);
            r.prefill_done += u.tokens;
            // Publish newly completed whole blocks of the shared
            // prefix to the tree (cache ref on top of the table's —
            // the block now survives this request's eviction or
            // retirement). Blocks the tree already has insert as
            // no-ops.
            if (const std::size_t shareable = shareableBlocks(r.spec)) {
                const std::size_t done_blocks = std::min<std::size_t>(
                    r.prefill_done / pool_.blockTokens(), shareable);
                for (std::size_t k = 0; k < done_blocks; ++k)
                    tree_.insert(r.spec.prefix_id, k, r.kv.blocks[k]);
            }
            break;
        case flash::WorkClass::Recompute:
            r.stats.recompute_time += s.token_time;
            ++r.stats.recompute_chunks;
            noteChunkRate(s, u.tokens);
            if (!r.first_emitted)
                r.recompute_pre_ft += s.token_time;
            r.rebuild_from += u.tokens;
            CAMLLM_ASSERT(r.recompute_pending >= u.tokens);
            r.recompute_pending -= u.tokens;
            out_.recompute_tokens += u.tokens;
            break;
        default: // Decode: startUnit admits no other class
            r.stats.total_token_time += s.token_time;
            ++r.tokens_done;
            break;
        }
        // The request's first emitting unit — its last prompt chunk,
        // or the first decode step of a decode-only request — emits
        // the first token; every later one is a decode step.
        if (u.emits_token) {
            if (r.first_emitted) {
                tbt_ms_.add(double(s.token_time) / double(kMs));
            } else {
                r.stats.first_token = s;
                r.stats.first_token_tick = eq_.now();
                r.first_emitted = true;
            }
        }
        // Next unit — or, at this unit boundary, a pending eviction
        // or the request's retirement. Continuous: no batch barrier.
        startNext(i);
    }

    // The policy's next prefill (or recompute) chunk out of @p limit
    // tokens of work: FCFS takes all of it at once; the chunked
    // policy caps it at its token budget.
    std::uint32_t chunkFor(std::uint32_t limit) const
    {
        if (opt_.policy != SchedPolicy::ChunkedInterleave)
            return limit;
        return std::min(opt_.prefill_chunk, limit);
    }

    void startNext(std::size_t i)
    {
        ReqRun &r = runs_[i];
        // A finished run has no next unit. Killed runs' completions
        // are dropped by abortUnit() and swap-in landings check first,
        // so no caller should get here for one; keep it a no-op.
        if (r.finished)
            return;
        // The one completion rule, for decode and prefill-only
        // requests alike: prompt prefilled, every decode step done and
        // no rebuild pending. Retiring beats a pending eviction.
        if (r.prefill_done >= r.spec.prompt &&
            r.tokens_done == r.spec.decode_tokens &&
            r.rebuild_from >= r.rebuild_target) {
            r.preempt_pending = false;
            retire(i, RequestOutcome::Completed);
            pool_.release(r.kv);
            releaseSlot();
            onFree(); // refill the slot / wake KV waiters, same tick
            return;
        }
        // A pending eviction lands at the next unit boundary — which
        // for a victim admitted in this wave that has not issued its
        // first unit yet is right here.
        if (r.preempt_pending) {
            evictRun(i);
            return;
        }
        // KV REBUILD: restore evicted coverage left to right. A range
        // of swapped blocks streams back over the channels
        // (WorkClass::KvSwap); everything else recomputes as prefill
        // chunks under the policy's budget — no token is emitted
        // (emits_token = false) and the re-streamed weight traffic is
        // tagged WorkClass::Recompute. Earlier positions are always
        // resident before later ones rebuild, so attention inputs
        // stay valid mid-rebuild. A resumed run holds a full
        // reservation, so its ensureKv can never stall.
        DecodeStream::Unit unit;
        if (r.rebuild_from < r.rebuild_target) {
            const std::uint32_t B = pool_.blockTokens();
            const std::size_t blk = B > 0 ? r.rebuild_from / B : 0;
            if (blk < r.swap_mask.size() && r.swap_mask[blk]) {
                // Maximal contiguous run of swapped blocks.
                std::uint32_t blocks = 0, tokens = 0;
                for (std::size_t k = blk;
                     k < r.swap_mask.size() && r.swap_mask[k] &&
                     std::uint32_t(k) * B < r.rebuild_target;
                     ++k) {
                    tokens += std::min<std::uint32_t>(
                        B, r.rebuild_target - std::uint32_t(k) * B);
                    ++blocks;
                }
                issueSwapIn(i, blocks, tokens);
                return;
            }
            // Recompute up to the next swapped block (if any).
            std::uint32_t limit = r.rebuild_target - r.rebuild_from;
            for (std::size_t k = blk; k < r.swap_mask.size(); ++k)
                if (r.swap_mask[k] &&
                    std::uint32_t(k) * B > r.rebuild_from) {
                    limit = std::uint32_t(k) * B - r.rebuild_from;
                    break;
                }
            unit = {flash::WorkClass::Recompute, r.rebuild_from,
                    chunkFor(limit), /*emits_token=*/false};
        } else if (r.prefill_done < r.spec.prompt) {
            // PREFILL: the next chunk of the remaining prompt; the
            // last one's head projection emits the first token.
            const std::uint32_t remaining =
                r.spec.prompt - r.prefill_done;
            const std::uint32_t chunk = chunkFor(remaining);
            unit = {flash::WorkClass::Prefill,
                    r.spec.context + r.prefill_done, chunk,
                    chunk == remaining};
        } else {
            // DECODE: one token on top of the request's KV stream.
            unit = {flash::WorkClass::Decode,
                    r.spec.context + r.spec.prompt + r.tokens_done, 1,
                    /*emits_token=*/true};
        }
        // Every unit appends its tokens' KV after kv_base.
        if (!ensureKv(i, std::uint64_t(unit.kv_base) + unit.tokens))
            return;
        r.unit = unit;
        r.token_start = eq_.now();
        r.stream->startUnit(unit, [this, i](const TokenStats &s) {
            onUnitDone(i, s);
        });
    }

    // --- KV capacity: growth, eviction, swap ---------------------------

    // Grow @p r's block table to cover @p tokens. A dry pool first
    // sheds cold cache-only prefix blocks (nobody's table maps them)
    // — cache capacity yields before anyone is preempted.
    bool tryGrowKv(ReqRun &r, std::uint64_t tokens)
    {
        if (pool_.tryGrow(r.kv, tokens))
            return true;
        if (!opt_.kv_prefix_sharing)
            return false;
        const std::uint64_t shortfall = pool_.blocksForTokens(tokens) -
                                        r.kv.blocks.size() -
                                        pool_.freeBlocks();
        return tree_.dropCold(shortfall) > 0 &&
               pool_.tryGrow(r.kv, tokens);
    }

    // Grow @p i's block table to cover @p tokens, or stall the
    // request and go looking for a victim.
    bool ensureKv(std::size_t i, std::uint64_t tokens)
    {
        ReqRun &r = runs_[i];
        if (tryGrowKv(r, tokens)) {
            unstall(r);
            return true;
        }
        if (!r.stalled) {
            r.stalled = true;
            r.blocked_since = eq_.now();
        }
        maybePreempt();
        return false;
    }

    // Grow the FCFS resume-queue head to its full final reservation.
    // With the KV-reuse knobs on, the head can be blocked by capacity
    // that is only conditionally useful: cold prefix-cache blocks
    // nobody maps, and head blocks that *younger* preempted victims
    // kept through partial eviction. The head is older and resumes
    // first, so when nothing active remains to free blocks, those
    // keeps are worthless — reclaim them (the younger victims fall
    // back to a full rebuild by recompute) rather than deadlock. With
    // every knob off this is exactly the legacy tryGrow.
    bool growForResume(std::size_t i)
    {
        ReqRun &r = runs_[i];
        const std::uint64_t tokens = finalKvTokens(r.spec);
        if (tryGrowKv(r, tokens))
            return true;
        if (!opt_.kv_partial_evict || active_ != 0)
            return false;
        for (std::size_t j = runs_.size(); j-- > i + 1;) {
            ReqRun &q = runs_[j];
            if (!q.preempted || q.kv.blocks.empty())
                continue;
            for (std::uint32_t b : q.kv.blocks)
                pool_.releaseBlock(b);
            q.kv.blocks.clear();
            // The kept head tokens now rebuild like everything else;
            // they were never swapped, so they recompute.
            q.recompute_pending += q.rebuild_from;
            q.rebuild_from = 0;
            if (pool_.tryGrow(r.kv, tokens))
                return true;
        }
        return false;
    }

    // Whole blocks of @p spec's shared prefix that prefix sharing may
    // map from the tree at admission and publish to it as chunks
    // land. Only blocks strictly inside a context-free prompt
    // qualify, so the last chunk still runs and emits the first
    // token.
    std::size_t shareableBlocks(const ServeRequest &spec) const
    {
        if (!opt_.kv_prefix_sharing || spec.prefix_id == 0 ||
            spec.context != 0 || spec.prompt < 2)
            return 0;
        return std::min(spec.prefix_tokens, spec.prompt - 1) /
               pool_.blockTokens();
    }

    // Recompute-vs-swap cost model, decided per evicted block.
    // Recompute re-runs the block's tokens as a prefill chunk: cost =
    // tokens x the measured extrapolated ms/token (the admission EMA,
    // which already bakes in NPU contention, retries and degradation;
    // before the first sample, an NPU-bound MAC-time floor from the
    // model's parameter count). Swap moves the block's full-depth
    // bytes over the channel buses twice — out now, back on resume —
    // at the bandwidth the device has left
    // (FlashSystem::kvSwapRoundTripMs). Deterministic: every input is
    // sim state.
    bool swapBeatsRecompute(std::uint32_t tokens) const
    {
        const double recompute_ms =
            prefill_ms_per_tok_ > 0.0
                ? double(tokens) * prefill_ms_per_tok_
                : double(config_.npu.computeTime(
                      2.0 * double(model_.totalParams()) *
                      double(tokens))) /
                      double(kMs);
        return fs_.kvSwapRoundTripMs(std::uint64_t(tokens) *
                                     token_kv_bytes_) < recompute_ms;
    }

    // Victim policy: the lowest-priority (latest-arrived) running
    // request that does not hold a full reservation. Older requests
    // are deep in decode while the newest is typically still
    // prefilling, so eviction lands on young prefills first — the
    // ROADMAP's decode-priority preemption. One eviction is in flight
    // at a time; a mid-step victim is evicted at its next unit
    // boundary, a stalled one (including the requester itself)
    // immediately. When every active run is resumed there is no
    // victim: the requester waits for a retirement, which resumed
    // runs — they can never stall — are guaranteed to reach.
    void maybePreempt()
    {
        for (const ReqRun &r : runs_)
            if (r.preempt_pending)
                return;
        std::size_t victim = runs_.size();
        for (std::size_t j = 0; j < runs_.size(); ++j) {
            const ReqRun &r = runs_[j];
            if (r.admitted && !r.finished && !r.preempted &&
                !r.resumed)
                victim = j;
        }
        if (victim == runs_.size())
            return;
        if (runs_[victim].stalled)
            evictRun(victim);
        else
            runs_[victim].preempt_pending = true;
    }

    void evictRun(std::size_t j)
    {
        ReqRun &r = runs_[j];
        CAMLLM_ASSERT(r.admitted && !r.finished && !r.preempted);
        if (!r.stalled)
            r.blocked_since = eq_.now();
        r.stalled = false;
        r.preempt_pending = false;
        r.preempted = true;
        // Everything the victim sheds must be restored before it can
        // continue: warm context, prefilled prompt positions and the
        // KV of every decoded token. Eviction is block-granular —
        // each shed block either swaps out to flash (cost model and
        // region quota permitting) or is marked for recompute.
        const auto coverage = std::uint32_t(
            r.spec.context + r.prefill_done + r.tokens_done);
        const std::size_t n_blocks = r.kv.blocks.size();
        CAMLLM_ASSERT(n_blocks == pool_.blocksForTokens(coverage),
                      "victim table covers %zu blocks, coverage %u "
                      "tokens needs %llu",
                      n_blocks, coverage,
                      (unsigned long long)pool_.blocksForTokens(
                          coverage));
        const std::uint32_t B = pool_.blockTokens();

        // Partial eviction: keep the head and shed only the coldest
        // tail — enough blocks that actually free capacity (shared
        // blocks held elsewhere free nothing) to cover the worst
        // stalled run's *final* demand, not just the boundary it
        // tripped on. Sizing for the final demand costs a few more
        // tail blocks now but keeps the requester from stalling again
        // a few tokens later and triggering an eviction cascade that
        // would erase the partial keep's savings. When even the whole
        // table cannot cover it, fall back to full eviction (the
        // legacy policy, and the only choice with the knob off).
        std::size_t keep = 0;
        if (opt_.kv_partial_evict && n_blocks > 0) {
            std::uint64_t need = 1;
            for (const ReqRun &q : runs_)
                if (q.stalled) {
                    const std::uint64_t q_need = pool_.blocksForTokens(
                        finalKvTokens(q.spec));
                    if (q_need > q.kv.blocks.size())
                        need = std::max(need, q_need -
                                                  q.kv.blocks.size());
                }
            const std::uint64_t free_now = pool_.freeBlocks();
            need = need > free_now ? need - free_now : 1;
            std::uint64_t freeable = 0;
            std::size_t k = n_blocks;
            while (k > 0 && freeable < need) {
                --k;
                if (pool_.refCount(r.kv.blocks[k]) == 1)
                    ++freeable;
            }
            if (freeable >= need && k > 0) {
                keep = k;
                ++out_.partial_evictions;
            }
        }

        r.rebuild_from =
            std::min(std::uint32_t(keep) * B, coverage);
        r.rebuild_target = coverage;
        r.recompute_pending = 0;
        r.swap_mask.assign(n_blocks, 0);
        for (std::size_t k = keep; k < n_blocks; ++k) {
            const std::uint32_t lo = std::uint32_t(k) * B;
            const std::uint32_t tok =
                std::min<std::uint32_t>(B, coverage - lo);
            bool swapped = false;
            // Shared blocks stay resident for their other holders —
            // swapping a copy out would duplicate live DRAM data, so
            // they always rebuild by recompute here.
            if (opt_.kv_swap && tok > 0 &&
                pool_.refCount(r.kv.blocks[k]) == 1 &&
                swapBeatsRecompute(tok)) {
                const std::uint64_t full =
                    std::uint64_t(tok) * token_kv_bytes_;
                const std::uint64_t sim =
                    std::uint64_t(tok) * token_kv_sim_bytes_;
                if (fs_.kvSwapOut(full, sim)) {
                    swapped = true;
                    r.swapped_out_tokens += tok;
                    ++out_.swap_out_blocks;
                } else {
                    ++out_.swap_refused_blocks;
                }
            }
            r.swap_mask[k] = swapped ? 1 : 0;
            if (!swapped)
                r.recompute_pending += tok;
            pool_.releaseBlock(r.kv.blocks[k]);
        }
        r.kv.blocks.resize(keep);
        ++r.stats.preemptions;
        ++out_.preemptions;
        releaseSlot();
        onFree();
    }

    // Stream a run of swapped-out blocks back from flash
    // (FlashSystem::kvSwapIn). The owner waits for the whole run to
    // land before continuing its rebuild; the span is billed as
    // KV-blocked time (pool-management wait, not NPU service — so
    // TTFT/TBT see it at the run's extrapolation factor, like any
    // other KV stall). A run killed mid-swap-in already freed its
    // quota at issue; its late data is simply dropped.
    void issueSwapIn(std::size_t i, std::uint32_t blocks,
                     std::uint32_t tokens)
    {
        ReqRun &r = runs_[i];
        CAMLLM_ASSERT(r.swapped_out_tokens >= tokens);
        r.swapped_out_tokens -= tokens;
        fs_.kvSwapIn(std::uint64_t(tokens) * token_kv_bytes_,
                     std::uint64_t(tokens) * token_kv_sim_bytes_,
                     [this, i, blocks, tokens, start = eq_.now()] {
                         ReqRun &owner = runs_[i];
                         if (owner.finished)
                             return;
                         owner.rebuild_from += tokens;
                         CAMLLM_ASSERT(owner.rebuild_from <=
                                       owner.rebuild_target);
                         owner.stats.swapped_in_blocks += blocks;
                         out_.swap_in_blocks += blocks;
                         addBlocked(owner, start);
                         startNext(i);
                     });
    }

    void onFree()
    {
        // 1. Stalled running requests retry first (they hold blocks
        //    and are mid-request — decode priority), arrival order.
        //    startNext re-derives the pending unit and either issues
        //    it or re-stalls.
        for (std::size_t i = 0; i < runs_.size(); ++i)
            if (runs_[i].stalled)
                startNext(i);
        // 2. Evicted requests resume strictly FCFS, each only with a
        //    reservation for its full final KV demand — a resumed run
        //    can never stall again, which keeps the schedule
        //    livelock-free (and means a request is evicted at most
        //    once).
        std::vector<std::size_t> resumed_now;
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            ReqRun &r = runs_[i];
            if (!r.preempted)
                continue;
            if (!growForResume(i))
                break;
            r.preempted = false;
            r.resumed = true;
            addBlocked(r, r.blocked_since);
            ++active_;
            resumed_now.push_back(i);
        }
        if (!resumed_now.empty()) {
            rebudget();
            for (std::size_t i : resumed_now)
                startNext(i);
        }
        // 3. New admissions last.
        admit();
    }

    // --- admission and SLO projection ----------------------------------

    // Projected TTFT for an arriving request: every admitted run's
    // outstanding prefill + recompute tokens are ahead of the new
    // request's own prompt on the shared device. Swapped-out rebuild
    // ranges stream over the channels, not the NPU, so only the
    // recompute share counts as prefill backlog.
    double projectedTtftMs(const ServeRequest &spec) const
    {
        // Cold start: no prefill chunk has finished, so there is no
        // measured rate to project from. Admit — the guard must never
        // shed on an empty EMA (a burst at t = 0 would otherwise be
        // rejected blind; pinned by the SLO cold-start test).
        if (prefill_ms_per_tok_ <= 0.0)
            return 0.0;
        std::uint64_t backlog = 0;
        for (const ReqRun &q : runs_)
            if (q.admitted && !q.finished)
                backlog += (q.spec.prompt - q.prefill_done) +
                           q.recompute_pending;
        const std::uint64_t own =
            std::max<std::uint32_t>(1, spec.prompt);
        return double(backlog + own) * prefill_ms_per_tok_;
    }

    void admit()
    {
        std::vector<std::size_t> started;
        while (active_ < opt_.max_batch && next_admit_ < runs_.size()) {
            ReqRun &r = runs_[next_admit_];
            // Skip over queued requests already torn down (cancelled
            // or timed out before they ever got a slot).
            if (r.finished) {
                ++next_admit_;
                continue;
            }
            const ServeRequest &spec = r.spec;
            if (spec.arrival > eq_.now()) {
                // Head of the queue is in the future: wake when it
                // lands (arrivals are sorted, one wake suffices).
                if (!wake_pending_) {
                    wake_pending_ = true;
                    eq_.schedule(spec.arrival, [this] {
                        wake_pending_ = false;
                        admit();
                    });
                }
                break;
            }
            // A request whose final KV demand exceeds the whole pool
            // can never run: reject it loudly at its admission point
            // (ServeStats::rejected_infeasible) and keep serving
            // everyone else.
            const std::uint64_t demand = finalKvTokens(spec);
            if (pool_.bounded() &&
                pool_.blocksForTokens(demand) > pool_.totalBlocks()) {
                warn("rejecting request %zu: KV demand (%llu tokens "
                     "= %llu blocks of %u) exceeds the whole KV "
                     "budget (%llu blocks)",
                     next_admit_, (unsigned long long)demand,
                     (unsigned long long)pool_.blocksForTokens(demand),
                     opt_.kv_block_tokens,
                     (unsigned long long)pool_.totalBlocks());
                retire(next_admit_++, RequestOutcome::RejectedInfeasible);
                continue;
            }
            // SLO-aware admission: an arrival whose projected TTFT
            // (queue of admitted prefill work ahead of it, at the
            // measured per-token rate) already busts the target is
            // shed.
            if (opt_.slo_ttft_ms > 0.0) {
                const double projected = projectedTtftMs(spec);
                if (projected > opt_.slo_ttft_ms) {
                    warn("shedding request %zu: projected TTFT %.3g ms "
                         "exceeds SLO %.3g ms",
                         next_admit_, projected, opt_.slo_ttft_ms);
                    retire(next_admit_++, RequestOutcome::ShedSlo);
                    continue;
                }
            }
            // Admission requires the request's warm context KV to be
            // resident; a dry pool queues the head FCFS (admission
            // never preempts — only running requests' growth does)
            // and retries on the next block free.
            if (spec.context > 0 && !pool_.tryGrow(r.kv, spec.context))
                break;
            const std::size_t i = next_admit_++;
            ++out_.admitted;
            r.stream = std::make_unique<DecodeStream>(
                env_, llm::KvView{opt_.kv_block_tokens});
            // Prefix sharing: map the tree's cached leading blocks
            // into this request's table (refcounted — the tree keeps
            // its own ref) and skip their prefill.
            const std::size_t hit = tree_.match(
                spec.prefix_id, shareableBlocks(spec), r.kv.blocks);
            if (hit > 0) {
                r.prefill_done = std::uint32_t(hit) * pool_.blockTokens();
                r.stats.prefix_reused_tokens = r.prefill_done;
            }
            r.admitted = true;
            ++active_;
            started.push_back(i);
        }
        if (started.empty())
            return;
        // Budget every stream for the new concurrency BEFORE any new
        // stream issues work, so no first token prefetches with more
        // than its share of the staging buffer.
        rebudget();
        for (std::size_t i : started) {
            runs_[i].stats.admit_tick = eq_.now();
            startNext(i);
        }
    }

    // --- stats assembly ------------------------------------------------

    void assembleStats()
    {
        out_.max_batch = opt_.max_batch;
        // sim_makespan is the last request exit (retire()), not
        // eq.now(): trailing no-op deadline and cancel events,
        // fault-model timers and Low-priority swap-out writes can all
        // drain after it.
        out_.sim_events = eq_.executed();
        out_.requests.reserve(runs_.size());

        Tick sim_sum = 0, ext_sum = 0;
        double rate_sum = 0.0, rate_sq_sum = 0.0;
        std::uint64_t goodput_tokens = 0;
        for (ReqRun &r : runs_) {
            ServeRequestStats &st = r.stats;
            // A killed run completed only tokens_done of its decode
            // budget (a completed run's tokens_done equals
            // decode_tokens, so these expressions reduce to the
            // historical ones).
            const std::uint32_t steps = r.tokens_done;
            st.tokens_emitted =
                steps + ((st.prompt > 0 && r.first_emitted) ? 1u : 0u);
            st.mean_token_time =
                steps > 0 ? st.total_token_time / steps : 0;
            st.tokens_per_s =
                st.total_token_time > 0
                    ? double(steps) * double(kSec) /
                          double(st.total_token_time)
                    : 0.0;
            out_.total_tokens += st.tokens_emitted;
            if (st.outcome == RequestOutcome::Completed)
                goodput_tokens += st.tokens_emitted;
            sim_sum += r.sim_token_sum;
            ext_sum += st.total_token_time + st.prefill_time +
                       st.recompute_time;
            rate_sum += st.tokens_per_s;
            rate_sq_sum += st.tokens_per_s * st.tokens_per_s;
            out_.requests.push_back(std::move(st));
        }

        out_.extrapolation_factor =
            sim_sum > 0 ? double(ext_sum) / double(sim_sum) : 1.0;
        const double real_makespan =
            double(out_.sim_makespan) * out_.extrapolation_factor;
        out_.finite_run_tokens_per_s =
            real_makespan > 0.0
                ? double(out_.total_tokens) * double(kSec) / real_makespan
                : 0.0;
        const double concurrency = double(
            std::min<std::size_t>(opt_.max_batch, out_.requests.size()));
        out_.aggregate_tokens_per_s =
            concurrency * rate_sum / double(out_.requests.size());
        out_.avg_channel_util = fs_.avgChannelUtilization(out_.sim_makespan);
        const std::size_t n = out_.requests.size();
        out_.fairness_jain =
            rate_sq_sum > 0.0
                ? (rate_sum * rate_sum) / (double(n) * rate_sq_sum)
                : 1.0;

        // Latency SLOs in depth-extrapolated milliseconds. Service
        // spans are the sum of per-step extrapolated times
        // (contention stalls included in each step's span);
        // queue-wait, KV-stall and eviction waits are sim time scaled
        // by the run's measured extrapolation factor, and
        // pre-first-token recompute is service time. With an
        // unbounded pool the KV terms are all zero and the formula
        // reduces to the pre-paging one exactly.
        SampleSet ttft_ms;
        for (std::size_t i = 0; i < out_.requests.size(); ++i) {
            ServeRequestStats &st = out_.requests[i];
            const ReqRun &r = runs_[i];
            // A request torn down before its first token has no TTFT
            // sample (and admit_tick may never have been set).
            if (!r.first_emitted) {
                st.ttft_ms = 0.0;
                st.mean_tbt_ms = 0.0;
                continue;
            }
            const double wait = (double(st.admit_tick - st.arrival) +
                                 double(r.blocked_pre_ft)) *
                                out_.extrapolation_factor;
            double ttft = wait + double(st.prefill_time) +
                          double(r.recompute_pre_ft);
            if (st.prompt == 0)
                ttft += double(st.first_token.token_time);
            st.ttft_ms = ttft / double(kMs);
            ttft_ms.add(st.ttft_ms);

            Tick tbt_total = st.total_token_time;
            std::uint32_t tbt_n = r.tokens_done;
            if (st.prompt == 0) {
                tbt_total -= st.first_token.token_time;
                tbt_n -= 1;
            }
            st.mean_tbt_ms =
                tbt_n > 0
                    ? double(tbt_total) / double(tbt_n) / double(kMs)
                    : 0.0;
        }
        out_.ttft = summarize(ttft_ms);
        out_.tbt = summarize(tbt_ms_);

        out_.npu_array_util = npu_.arrayUtilization(out_.sim_makespan);
        out_.prefill_channel_bytes =
            fs_.deliveredBytes(flash::WorkClass::Prefill);
        out_.decode_channel_bytes =
            fs_.deliveredBytes(flash::WorkClass::Decode);
        out_.recompute_channel_bytes =
            fs_.deliveredBytes(flash::WorkClass::Recompute);

        out_.kv_swap_channel_bytes = fs_.kvSwapChannelBytes();
        out_.prefix_hit_blocks = tree_.hitBlocks();
        out_.prefix_hit_tokens =
            tree_.hitBlocks() * std::uint64_t(pool_.blockTokens());
        out_.prefix_inserted_blocks = tree_.insertedBlocks();
        out_.prefix_dropped_blocks = tree_.droppedBlocks();
        out_.kv_blocks_total = pool_.bounded() ? pool_.totalBlocks() : 0;
        out_.kv_blocks_high_water = pool_.highWaterBlocks();
        out_.kv_block_allocs = pool_.allocCount();
        out_.kv_block_frees = pool_.freeCount();

        out_.goodput_tokens_per_s =
            real_makespan > 0.0
                ? double(goodput_tokens) * double(kSec) / real_makespan
                : 0.0;
        out_.read_retries = fs_.retryReads();
        out_.retry_channel_bytes = fs_.retryBytes();
        out_.remap_bytes = fs_.remapBytes();
        out_.channels_lost = fs_.channelsLost();
        out_.reissued_jobs = fs_.reissuedJobs();
        out_.refresh_pages = fs_.refreshPages();
        out_.refresh_channel_bytes = fs_.refreshChannelBytes();
        out_.refresh_deferred_beats = fs_.refreshDeferredBeats();
        out_.wear_spread_pe = fs_.wearSpreadPe();
        out_.wear_mean_pe = fs_.wearMeanPe();
    }
};

} // namespace

Scheduler::Scheduler(const CamConfig &config,
                     const llm::ModelConfig &model)
    : config_(config), model_(model)
{
    if (!config_.flash.valid() || !config_.npu.valid())
        fatal("invalid Cambricon-LLM configuration '%s'",
              config_.name.c_str());
    if (!model_.valid())
        fatal("invalid model configuration '%s'", model_.name.c_str());

    // Capacity check: all weights must place in the flash device.
    const auto quant = llm::QuantSpec::of(config_.quant);
    const auto &g = config_.flash.geometry;
    const std::uint64_t pages_needed =
        (quant.weightBytes(model_.totalParams()) + g.page_bytes - 1) /
        g.page_bytes;
    if (pages_needed > g.totalPages())
        fatal("%s (%llu pages of weights) does not fit the flash "
              "device (%llu pages); add chips or channels",
              model_.name.c_str(), (unsigned long long)pages_needed,
              (unsigned long long)g.totalPages());

    plan_cache_ = std::make_unique<PlanCache>(config_.flash, quant,
                                              config_.tilingOptions());
}

ServeStats
Scheduler::serve(const std::vector<ServeRequest> &requests,
                 const SchedOptions &opt) const
{
    CAMLLM_ASSERT(!requests.empty());
    CAMLLM_ASSERT(opt.max_batch >= 1);
    if (opt.policy == SchedPolicy::ChunkedInterleave)
        CAMLLM_ASSERT(opt.prefill_chunk >= 1);
    if (opt.kv_swap)
        CAMLLM_ASSERT(opt.kv_budget_bytes > 0,
                      "kv_swap without a bounded KV pool has nothing "
                      "to swap");
    if (opt.kv_prefix_sharing)
        CAMLLM_ASSERT(opt.kv_block_tokens >= 1,
                      "kv_prefix_sharing shares whole KV blocks and "
                      "needs kv_block_tokens >= 1");
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ServeRequest &r = requests[i];
        CAMLLM_ASSERT(r.servable(),
                      "request %zu needs a prompt, or warm context "
                      "and a decode step",
                      i);
        CAMLLM_ASSERT(i == 0 ||
                          r.arrival >= requests[i - 1].arrival,
                      "arrival trace must be time-ordered");
    }
    return ServeRun(config_, model_, *plan_cache_, requests, opt).run();
}

} // namespace camllm::core
