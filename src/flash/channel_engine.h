/**
 * @file
 * Per-channel scheduler: owns the channel bus and the dies behind it,
 * runs the read-compute tile window (Compute Control + input-buffer
 * credit) and dispatches ordinary page reads to idle read planes
 * (Slice Control's partner on the controller side).
 *
 * Completions are not upcalled synchronously: each finished tile
 * result or read page becomes a tagged Completion record handed to
 * the CompletionRouter, which delivers it to the owning client
 * through the EventQueue. The channel itself is client agnostic, so
 * several decode streams may interleave work on the same channel.
 */

#ifndef CAMLLM_FLASH_CHANNEL_ENGINE_H
#define CAMLLM_FLASH_CHANNEL_ENGINE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "flash/bus.h"
#include "flash/completion.h"
#include "flash/die.h"
#include "flash/fault.h"
#include "flash/params.h"
#include "flash/work.h"
#include "sim/event_queue.h"

namespace camllm::flash {

/** Scheduler for one flash channel and its dies. */
class ChannelEngine
{
  public:
    /**
     * @param router completion routing back to connected clients;
     * must outlive the channel.
     * @param slice_control enables the paper's Slice Control: priority
     * bus arbitration for rc traffic (the read-slicing half lives in
     * each ReadPageJob's `sliced` flag).
     * @param channel_index this channel's position in the device, so
     * its dies can look up their planes' wear state in a
     * wear-tracking fault model.
     */
    ChannelEngine(EventQueue &eq, const FlashParams &params,
                  CompletionRouter &router, std::uint32_t tile_window = 3,
                  bool slice_control = true,
                  std::uint32_t channel_index = 0);

    /** Queue a read-compute tile (this channel's slice of it). */
    void submitTile(const RcTileWork &tile);

    /** Queue an ordinary page read for the NPU. */
    void submitRead(const ReadPageJob &job);

    ChannelBus &bus() { return bus_; }
    const ChannelBus &bus() const { return bus_; }
    DieModel &die(std::size_t i) { return *dies_[i]; }
    std::size_t dieCount() const { return dies_.size(); }

    /** Tiles submitted but not yet fully completed. */
    std::size_t tilesInFlight() const
    {
        return tile_queue_.size() + active_.size();
    }

    std::size_t readBacklog() const { return read_queue_.size(); }

    // --- fault injection ---------------------------------------------
    /** Arm soft read failures on every die of this channel. */
    void setFaultModel(FaultModel *fault);

    /** Work stranded on a channel when it dies. */
    struct OfflineWork
    {
        std::vector<RcTileWork> tiles; ///< queued + unfinished actives
        std::vector<ReadPageJob> reads;///< queued + die-resident
    };

    /**
     * Kill the channel: mark it (and its dies) offline so every event
     * still in flight fires as a no-op, and hand back the work that
     * was queued or resident so the facade can re-issue it on the
     * survivors. Completion records for the stranded work are never
     * delivered from here — the re-issued copies produce them.
     */
    OfflineWork failOffline();

    bool offline() const { return offline_; }

    std::uint64_t pagesComputed() const;
    std::uint64_t pagesRead() const;
    std::uint64_t arrayReads() const;
    std::uint64_t retryReads() const;

    /** Payload bytes delivered to clients for @p cls work (read-page
     *  data plus read-compute result vectors). */
    std::uint64_t
    deliveredBytes(WorkClass cls) const
    {
        return delivered_bytes_[std::size_t(cls)];
    }

  private:
    friend class DieModel; // the upcalls below

    void tryActivate();
    void dispatchReads();

    // --- die upcalls ----------------------------------------------------
    /** Is tile @p tile_seq's input vector in the input buffer? */
    bool inputReady(std::uint32_t tile_seq) const;
    /** A compute result finished its bus grant. */
    void onRcResultDelivered(const RcPageJob &job);
    /** A read page finished its last bus slice. */
    void onReadDelivered(const ReadPageJob &job);
    /** A die's read plane can accept another job. */
    void onReadSlotFree();
    /** A failed sense's page crossed the bus before the controller's
     *  ECC rejected it (retry-traffic accounting). */
    void onRetryDrained(const ReadPageJob &job);

    struct ActiveTile
    {
        std::uint32_t seq;
        RcTileWork work; ///< as submitted, for re-issue on failure
        std::uint32_t results_remaining;
        bool input_ready = false;
    };

    /** Position of tile @p seq in active_; panics if inactive. */
    std::size_t activeIndex(std::uint32_t seq) const;

    EventQueue &eq_;
    FlashParams params_;
    CompletionRouter &router_;
    std::uint32_t tile_window_;
    std::uint32_t channel_index_;

    ChannelBus bus_;
    std::vector<std::unique_ptr<DieModel>> dies_;

    std::deque<RcTileWork> tile_queue_;
    /** At most tile_window_ tiles, in sequence order. */
    std::vector<ActiveTile> active_;
    std::uint32_t next_tile_seq_ = 0;

    std::deque<ReadPageJob> read_queue_;
    std::size_t rr_die_ = 0; ///< round-robin cursor for read dispatch
    std::size_t free_read_planes_ = 0; ///< dies that canAcceptRead()

    bool offline_ = false;

    std::uint64_t delivered_bytes_[kWorkClasses] = {};
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_CHANNEL_ENGINE_H
