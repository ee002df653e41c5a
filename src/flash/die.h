/**
 * @file
 * Timing model of one flash die with on-die processing.
 *
 * Per the Cambricon-LLM design each die has two planes and one shared
 * Compute Core. One plane is dedicated to the read-compute stream (its
 * pages feed the core) while the other serves ordinary page reads that
 * stream weights to the NPU. Each plane has a data register (filled by
 * the tR array read) and a cache register (drained by the core or the
 * channel), giving the classic two-stage pipeline: the next array read
 * overlaps the consumption of the previous page.
 */

#ifndef CAMLLM_FLASH_DIE_H
#define CAMLLM_FLASH_DIE_H

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "flash/bus.h"
#include "flash/fault.h"
#include "flash/params.h"
#include "flash/work.h"
#include "sim/event_queue.h"

namespace camllm::flash {

class ChannelEngine;

/** Event-driven model of one on-die-processing flash die. */
class DieModel
{
  public:
    /** @p engine is the channel scheduler this die upcalls into (its
     *  only constructor); @p channel / @p die_in_channel identify this
     *  die so a wear-tracking fault model can look up the target
     *  plane's state. */
    DieModel(EventQueue &eq, ChannelBus &bus, const FlashParams &params,
             ChannelEngine &engine, std::uint32_t channel = 0,
             std::uint32_t die_in_channel = 0)
        : eq_(eq), bus_(bus), params_(params), engine_(engine),
          channel_(channel), die_(die_in_channel)
    {
    }

    // --- read-compute stream ---------------------------------------
    /** Queue an atomic-tile page for the compute plane. */
    void pushRcJob(const RcPageJob &job);

    /** Re-evaluate the core (called when an input vector arrives). */
    void notifyInputArrived() { advanceRc(); }

    // --- ordinary read stream ---------------------------------------
    /** @return true when the read plane can start another array read. */
    bool canAcceptRead() const;

    /** Start a page read for the NPU. @pre canAcceptRead(). */
    void pushReadJob(const ReadPageJob &job);

    // --- fault injection ---------------------------------------------
    /** Arm soft read failures; @p fault must outlive the die. */
    void setFaultModel(FaultModel *fault) { fault_ = fault; }

    /**
     * The channel died: stop reacting to anything still scheduled.
     * Events already in the queue fire as no-ops (the EventQueue has
     * no cancellation); pipeline registers are deliberately left
     * populated because pending bus-drain lambdas still dereference
     * them.
     */
    void setOffline() { offline_ = true; }

    /** Collect the read jobs resident in this die's pipeline slots so
     *  the facade can re-issue them on a surviving channel. */
    void collectReads(std::vector<ReadPageJob> &out) const;

    // --- statistics ---------------------------------------------------
    std::uint64_t pagesComputed() const { return pages_computed_; }
    std::uint64_t pagesRead() const { return pages_read_; }
    std::uint64_t arrayReads() const { return array_reads_; }
    std::uint64_t retryReads() const { return retry_reads_; }

  private:
    void advanceRc();
    void advanceRead();
    void startRcSense(std::uint32_t attempt, std::uint32_t retries);
    void startReadSense(std::uint32_t attempt, std::uint32_t retries);
    void drainFailedRead(std::uint32_t attempt, std::uint32_t retries);

    /** Bus grant size for @p job's page: one slice under Slice
     *  Control, the whole page (0) otherwise. */
    std::uint64_t sliceBytes(const ReadPageJob &job) const
    {
        return job.sliced ? params_.timing.slice_bytes : 0;
    }

    /** Plane ordinary reads are served from (the read-share plane
     *  when the die has more than one). */
    std::uint32_t readPlane() const
    {
        return params_.geometry.planes_per_die > 1 ? 1 : 0;
    }

    EventQueue &eq_;
    ChannelBus &bus_;
    FlashParams params_;
    ChannelEngine &engine_;
    std::uint32_t channel_ = 0;
    std::uint32_t die_ = 0;

    // read-compute plane pipeline
    std::deque<RcPageJob> rc_queue_;
    std::optional<RcPageJob> rc_reading_;  ///< array read in flight
    std::optional<RcPageJob> rc_data_reg_;
    std::optional<RcPageJob> rc_cache_reg_;
    bool rc_moving_ = false; ///< data->cache move in flight
    bool core_busy_ = false;
    std::deque<RcPageJob> rc_out_; ///< results awaiting their bus grant

    // read plane pipeline
    std::optional<ReadPageJob> rd_reading_;
    std::optional<ReadPageJob> rd_data_reg_;
    std::optional<ReadPageJob> rd_cache_reg_;
    bool rd_moving_ = false;
    bool rd_draining_ = false; ///< slices of cache page on the bus

    FaultModel *fault_ = nullptr;
    bool offline_ = false;

    std::uint64_t pages_computed_ = 0;
    std::uint64_t pages_read_ = 0;
    std::uint64_t array_reads_ = 0;
    std::uint64_t retry_reads_ = 0;
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_DIE_H
