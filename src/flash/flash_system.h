/**
 * @file
 * Facade over all flash channels: construction from FlashParams,
 * client connection, work submission routing and aggregate
 * statistics. Clients connect() a completion handler, tag their work
 * items with the returned ClientId, and receive tagged Completion
 * records through the EventQueue — several in-flight decode graphs
 * can share the one device.
 */

#ifndef CAMLLM_FLASH_FLASH_SYSTEM_H
#define CAMLLM_FLASH_FLASH_SYSTEM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "flash/channel_engine.h"
#include "flash/completion.h"
#include "flash/fault.h"
#include "flash/params.h"
#include "flash/placement.h"
#include "sim/event_queue.h"

namespace camllm::flash {

/** The complete on-die-processing flash device. */
class FlashSystem
{
  public:
    FlashSystem(EventQueue &eq, const FlashParams &params,
                std::uint32_t tile_window = 3, bool slice_control = true);

    /** Register a completion handler; tag submitted work with the id. */
    ClientId
    connect(CompletionRouter::Handler handler)
    {
        return router_.connect(std::move(handler));
    }

    /** Tear a client's completion port down early (cancellation):
     *  queued and future records for the id are dropped. */
    void disconnect(ClientId id) { router_.disconnect(id); }

    /**
     * Arm the fault spec: soft read failures on every die, the
     * scheduled channel slowdown/offline events, and — when the spec
     * asks — per-plane wear tracking, ECC-strength failure modeling
     * and the retention-refresh scrubber. Call once, before the
     * simulation starts. A spec with any() == false arms nothing and
     * leaves every code path byte-identical to a fault-free run.
     */
    void armFaults(const FaultSpec &spec);

    const FlashParams &params() const { return params_; }
    std::uint32_t channelCount() const { return params_.geometry.channels; }
    ChannelEngine &channel(std::uint32_t c) { return *channels_[c]; }
    const ChannelEngine &channel(std::uint32_t c) const
    {
        return *channels_[c];
    }

    /** Submit one channel's slice of a read-compute tile. A dead
     *  channel's traffic is striped over the survivors. */
    void
    submitTile(std::uint32_t ch, const RcTileWork &tile)
    {
        channels_[route(ch)]->submitTile(tile);
    }

    /** Submit an ordinary page read on channel @p ch (rerouted the
     *  same way when the channel is dead). */
    void
    submitRead(std::uint32_t ch, const ReadPageJob &job)
    {
        channels_[route(ch)]->submitRead(job);
    }

    /**
     * Read @p bytes as page-sized jobs stamped from @p proto, round-
     * robin over the channels from cursor @p ch; every job follows the
     * device's Slice Control. Returns the cursor after the last page.
     * The one place a byte range becomes ReadPageJobs.
     */
    std::uint32_t submitPageReads(ReadPageJob proto, std::uint64_t bytes,
                                  std::uint32_t ch);

    /** Channels still serving traffic. */
    std::uint32_t aliveChannels() const;

    // --- aggregate statistics ------------------------------------------
    /** Mean bus utilization across channels over [0, elapsed). */
    double avgChannelUtilization(Tick elapsed) const;

    /** Total bytes that crossed any channel bus (both classes). */
    std::uint64_t channelBytes() const;

    /** Bytes that crossed as read-compute inputs/results. */
    std::uint64_t channelBytesHigh() const;

    /** Bytes that crossed as ordinary read data. */
    std::uint64_t channelBytesLow() const;

    std::uint64_t pagesComputed() const;
    std::uint64_t pagesRead() const;

    /** Total NAND array reads (the dominant energy term). */
    std::uint64_t arrayReads() const;

    /** Payload bytes delivered for @p cls work across all channels
     *  (prefill/decode share of the device's client traffic). */
    std::uint64_t deliveredBytes(WorkClass cls) const;

    /** Sum of channel-bus busy ticks over all channels. */
    double busBusySum() const;

    // --- fault statistics ----------------------------------------------
    /** Escalated re-senses performed across every die. */
    std::uint64_t retryReads() const;

    /** Failed-sense page bytes that crossed a channel before the
     *  controller ECC rejected them (== deliveredBytes(Retry)). */
    std::uint64_t retryBytes() const { return deliveredBytes(WorkClass::Retry); }

    std::uint64_t remapBytes() const { return remap_bytes_; }
    std::uint32_t channelsLost() const { return channels_lost_; }

    /** Jobs stranded on dead channels and re-issued on survivors. */
    std::uint64_t reissuedJobs() const { return reissued_jobs_; }

    // --- reliability co-design -----------------------------------------
    /** Pages the retention scrubber has re-written. */
    std::uint64_t refreshPages() const { return refresh_pages_; }

    /** Scrub beats skipped because the previous scrub op was still in
     *  flight — nonzero means the configured rate exceeds what the
     *  dies/buses can absorb and the scrubber is self-throttling. */
    std::uint64_t refreshDeferredBeats() const
    {
        return refresh_deferred_beats_;
    }

    /** Total scrub bus traffic: re-read payload plus re-writes. */
    std::uint64_t
    refreshChannelBytes() const
    {
        return deliveredBytes(WorkClass::Refresh) + refresh_write_bytes_;
    }

    /**
     * Stop issuing new scrub reads (in-flight ones drain normally).
     * The scrubber is self-rescheduling, so a driver whose run ends
     * when the event queue empties must call this once its own work
     * is done; idempotent, and a no-op when refresh never armed.
     */
    void stopRefresh() { refresh_stopped_ = true; }

    /** Per-plane wear summary over alive planes (0 without a
     *  placement map). */
    double wearSpreadPe() const;
    double wearMeanPe() const;

    // --- KV swap ---------------------------------------------------------
    /**
     * Arm KV swap-to-flash: reserve all the free flash left after the
     * resident weights as the KV region and connect the swap-in
     * client. When no fault spec built a placement map, one is created
     * here and seeded with the resident weight image
     * (@p model_weight_bytes, so the region honestly competes with the
     * weights for capacity). Call once, after armFaults() and before
     * the simulation starts; never armed means every swap path below
     * is dead code and the event sequence is untouched.
     */
    void enableKvSwap(std::uint64_t model_weight_bytes);

    /**
     * Swap one evicted KV block out: program @p full_bytes of KV
     * (full model depth) into the region's quota — false when the
     * region is full, and the caller recomputes instead — then charge
     * @p sim_bytes of write traffic (sampled-layer clock share) over
     * the alive channel buses as low-priority grants, round-robin.
     */
    bool kvSwapOut(std::uint64_t full_bytes, std::uint64_t sim_bytes);

    /**
     * Swap @p full_bytes of KV back in: free their quota now, at issue,
     * then stream @p sim_bytes (sampled-layer share) back as page
     * reads tagged WorkClass::KvSwap, round-robin over the channels.
     * @p landed runs once, when the last byte has arrived.
     */
    void kvSwapIn(std::uint64_t full_bytes, std::uint64_t sim_bytes,
                  std::function<void()> landed);

    /** Swapped-out KV whose owner died: free its quota. */
    void kvSwapFree(std::uint64_t full_bytes);

    /**
     * Milliseconds to move @p full_bytes of KV over the channel buses
     * twice (out now, back on resume) at the bandwidth the alive
     * channels have left at their current occupancy (headroom floored
     * at 5%).
     */
    double kvSwapRoundTripMs(std::uint64_t full_bytes) const;

    /**
     * Drain audit, for a caller whose event queue has emptied: every
     * swap-in and scrub read landed, and the flash KV region holds no
     * swapped-out KV.
     */
    void checkDrained() const;

    /** Total swap bus traffic: swap-in payload plus swap-out writes. */
    std::uint64_t
    kvSwapChannelBytes() const
    {
        return deliveredBytes(WorkClass::KvSwap) + kv_swap_write_bytes_;
    }

  private:
    /** Redirect a dead channel's submissions across the survivors. */
    std::uint32_t route(std::uint32_t ch);

    /** Kill channel @p ch: remap its resident pages (rebuild traffic
     *  charged over the surviving buses) and re-issue its stranded
     *  jobs on the survivors. */
    void takeChannelOffline(std::uint32_t ch);

    // --- retention-refresh scrubber ------------------------------------
    void startRefresh(double pages_per_s);
    void refreshTick();
    void refreshWriteBack(std::size_t src);

    // --- background reads (swap-in, scrub) -------------------------------
    /** Read @p bytes as page reads on @p client from cursor @p ch and
     *  run @p landed once the last byte arrives; returns the cursor
     *  after the last page. */
    std::uint32_t trackedRead(ClientId client, WorkClass cls,
                              std::uint64_t bytes, std::uint32_t ch,
                              std::function<void()> landed);
    void onTrackedRead(const Completion &c);

    struct TrackedRead
    {
        std::uint64_t left = 0; ///< bytes still to arrive
        std::function<void()> landed;
    };

    EventQueue &eq_;
    FlashParams params_;
    bool slice_control_;
    CompletionRouter router_;
    std::vector<std::unique_ptr<ChannelEngine>> channels_;

    std::unique_ptr<FaultModel> fault_model_;
    std::unique_ptr<WeightPlacement> placement_;
    std::uint32_t redirect_rr_ = 0;
    std::uint32_t remap_rr_ = 0;
    std::uint32_t channels_lost_ = 0;
    std::uint64_t remap_bytes_ = 0;
    std::uint64_t reissued_jobs_ = 0;

    /** Outstanding-scrub cap making the beat closed-loop: a beat that
     *  fires while this many ops are still in flight defers instead
     *  of stacking more work onto a saturated die/bus. */
    static constexpr std::uint64_t kMaxRefreshInFlight = 1;

    /** In-flight background reads by op id. One id sequence serves
     *  every background client: the ids only key this map and never
     *  change timing. */
    std::unordered_map<std::uint64_t, TrackedRead> tracked_;
    std::uint64_t tracked_seq_ = 0;

    bool kv_swap_enabled_ = false;
    ClientId kv_swap_client_ = 0;
    std::uint32_t kv_swap_rr_ = 0;      ///< swap-out write channel cursor
    std::uint32_t kv_swap_read_rr_ = 0; ///< swap-in read channel cursor
    std::uint64_t kv_swap_write_bytes_ = 0;

    ClientId refresh_client_ = 0;
    bool refresh_stopped_ = false;
    Tick refresh_interval_ = 0;
    std::uint64_t refresh_pages_ = 0;
    std::uint64_t refresh_write_bytes_ = 0;
    std::uint64_t refresh_inflight_ = 0;
    std::uint64_t refresh_deferred_beats_ = 0;
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_FLASH_SYSTEM_H
