#include "die.h"

#include "common/logging.h"
#include "flash/channel_engine.h"

namespace camllm::flash {

void
DieModel::pushRcJob(const RcPageJob &job)
{
    rc_queue_.push_back(job);
    advanceRc();
}

void
DieModel::advanceRc()
{
    if (offline_)
        return;

    // Stage 1: array read into the data register. Per the paper's
    // read-compute flow the input vector is delivered first (step 1)
    // and only then is the weight page fetched (step 2); the plane
    // also waits for the data register to be handed off.
    if (!rc_reading_ && !rc_data_reg_ && !rc_queue_.empty() &&
        engine_.inputReady(rc_queue_.front().tile_seq)) {
        rc_reading_ = rc_queue_.front();
        rc_queue_.pop_front();
        // The compute plane is plane 0 of the die.
        startRcSense(0, fault_ ? fault_->drawRetriesForPlane(channel_,
                                                             die_, 0)
                               : 0);
    }

    // Stage 2: data register -> cache register move.
    if (rc_data_reg_ && !rc_cache_reg_ && !rc_moving_) {
        rc_moving_ = true;
        eq_.scheduleIn(params_.timing.t_reg_move, [this] {
            if (offline_)
                return;
            rc_cache_reg_ = rc_data_reg_;
            rc_data_reg_.reset();
            rc_moving_ = false;
            advanceRc();
        });
    }

    // Stage 3: compute, gated on the broadcast input vector.
    if (rc_cache_reg_ && !core_busy_ &&
        engine_.inputReady(rc_cache_reg_->tile_seq)) {
        core_busy_ = true;
        const Tick dur = rc_cache_reg_->compute_time;
        eq_.scheduleIn(dur, [this] {
            if (offline_)
                return;
            rc_out_.push_back(*rc_cache_reg_);
            rc_cache_reg_.reset();
            core_busy_ = false;
            ++pages_computed_;
            // The result waits in the output buffer for a bus grant.
            // The High queue is FIFO, so this die's grants complete in
            // the order its results were queued.
            bus_.request(BusPriority::High, rc_out_.back().out_bytes,
                         [this] {
                             const RcPageJob job = rc_out_.front();
                             rc_out_.pop_front();
                             if (!offline_)
                                 engine_.onRcResultDelivered(job);
                         },
                         "rc-result");
            advanceRc();
        });
    }
}

/**
 * One sense of the compute-plane page. The rc stream is decoded by
 * the on-die ECC engine, so a failed sense costs only the escalated
 * re-read — nothing crosses the bus until a rung decodes.
 */
void
DieModel::startRcSense(std::uint32_t attempt, std::uint32_t retries)
{
    ++array_reads_;
    if (attempt > 0)
        ++retry_reads_;
    // Every sense routes through the fault model when armed: attempt
    // 0 at default ECC strength is the base tR exactly, while an
    // armed ECC strength pays its soft-sense factor on every attempt.
    const Tick tr =
        fault_ ? fault_->senseTime(attempt) : params_.timing.t_read;
    eq_.scheduleIn(tr, [this, attempt, retries] {
        if (offline_)
            return;
        if (attempt < retries) {
            startRcSense(attempt + 1, retries);
            return;
        }
        rc_data_reg_ = rc_reading_;
        rc_reading_.reset();
        advanceRc();
    });
}

bool
DieModel::canAcceptRead() const
{
    return !rd_reading_ && !rd_data_reg_;
}

void
DieModel::pushReadJob(const ReadPageJob &job)
{
    CAMLLM_ASSERT(canAcceptRead(), "read plane busy");
    CAMLLM_ASSERT(job.bytes > 0 &&
                  job.bytes <= params_.geometry.page_bytes,
                  "read job of %u bytes", job.bytes);
    rd_reading_ = job;
    startReadSense(0, fault_ ? fault_->drawRetriesForPlane(
                                   channel_, die_, readPlane())
                             : 0);
}

/**
 * One sense of an ordinary read page. Unlike the rc stream, read
 * pages are decoded by the controller, so a failed attempt still pays
 * the register move and the full page transfer over the channel
 * before the ECC verdict comes back; those bytes are billed to
 * WorkClass::Retry via the engine's onRetryDrained upcall. The plane
 * stays occupied for the whole ladder (rd_reading_ keeps its job), so
 * canAcceptRead() correctly reports busy until a rung decodes.
 */
void
DieModel::startReadSense(std::uint32_t attempt, std::uint32_t retries)
{
    ++array_reads_;
    if (attempt > 0)
        ++retry_reads_;
    const Tick tr =
        fault_ ? fault_->senseTime(attempt) : params_.timing.t_read;
    eq_.scheduleIn(tr, [this, attempt, retries] {
        if (offline_)
            return;
        if (attempt < retries) {
            drainFailedRead(attempt, retries);
            return;
        }
        rd_data_reg_ = rd_reading_;
        rd_reading_.reset();
        advanceRead();
    });
}

/** Ship a failed sense to the controller, then climb the ladder. */
void
DieModel::drainFailedRead(std::uint32_t attempt, std::uint32_t retries)
{
    eq_.scheduleIn(params_.timing.t_reg_move, [this, attempt, retries] {
        if (offline_)
            return;
        bus_.request(BusPriority::Low, rd_reading_->bytes,
                     [this, attempt, retries] {
                         if (offline_)
                             return;
                         engine_.onRetryDrained(*rd_reading_);
                         startReadSense(attempt + 1, retries);
                     },
                     "retry-slice", sliceBytes(*rd_reading_));
    });
}

void
DieModel::advanceRead()
{
    if (offline_)
        return;

    // Data register -> cache register; frees the plane for the next
    // array read.
    if (rd_data_reg_ && !rd_cache_reg_ && !rd_moving_) {
        rd_moving_ = true;
        eq_.scheduleIn(params_.timing.t_reg_move, [this] {
            if (offline_)
                return;
            rd_cache_reg_ = rd_data_reg_;
            rd_data_reg_.reset();
            rd_moving_ = false;
            engine_.onReadSlotFree();
            advanceRead();
        });
    }

    // Drain the cache register over the channel, slice by slice when
    // Slice Control is enabled, or as one monolithic grant otherwise.
    if (rd_cache_reg_ && !rd_draining_) {
        rd_draining_ = true;
        bus_.request(BusPriority::Low, rd_cache_reg_->bytes,
                     [this] {
                         if (offline_)
                             return;
                         ReadPageJob done = *rd_cache_reg_;
                         rd_cache_reg_.reset();
                         rd_draining_ = false;
                         ++pages_read_;
                         engine_.onReadDelivered(done);
                         advanceRead();
                     },
                     "read-slice", sliceBytes(*rd_cache_reg_));
    }
}

void
DieModel::collectReads(std::vector<ReadPageJob> &out) const
{
    if (rd_reading_)
        out.push_back(*rd_reading_);
    if (rd_data_reg_)
        out.push_back(*rd_data_reg_);
    if (rd_cache_reg_)
        out.push_back(*rd_cache_reg_);
}

} // namespace camllm::flash
