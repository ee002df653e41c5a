/**
 * @file
 * Shared-NPU occupancy arbiter for multi-stream serving.
 *
 * One NPU serves every active stream of a device: decode GeMV tails,
 * prefill GeMM chunks, KV attention compute and SFU passes all want
 * the same silicon. Historically the co-simulation let concurrent
 * streams overlap their NPU time for free (an infinitely parallel
 * array), which flatters high-batch and prefill-heavy numbers. The
 * arbiter closes that gap: in contended mode every acquire serializes
 * on a FIFO npu::UnitOccupancy (one server for the systolic array,
 * one for the SFU), so a stream queues behind whatever array time its
 * neighbors already reserved.
 *
 * In free mode (`contended == false`) streams bypass the arbiter
 * entirely and schedule exactly as before — acquire() refuses to run
 * at all — which is what keeps decode-only FCFS scheduling
 * bit-identical to its recorded golden stats.
 */

#ifndef CAMLLM_CORE_NPU_ARBITER_H
#define CAMLLM_CORE_NPU_ARBITER_H

#include <functional>

#include "common/logging.h"
#include "common/units.h"
#include "npu/systolic.h"
#include "sim/event_queue.h"

namespace camllm::core {

/** FIFO arbiter over the NPU's systolic array and SFU. */
class NpuArbiter
{
  public:
    NpuArbiter(EventQueue &eq, bool contended)
        : eq_(eq), contended_(contended)
    {
    }

    NpuArbiter(const NpuArbiter &) = delete;
    NpuArbiter &operator=(const NpuArbiter &) = delete;

    /** True when streams must reserve unit time instead of
     *  overlapping for free. */
    bool contended() const { return contended_; }

    /**
     * Reserve @p busy ticks of systolic-array time; @p done fires
     * when the granted slot completes. Contended mode only: free-mode
     * streams must keep their historical direct scheduling (the
     * bit-exactness contract), so calling this without contention is
     * a bug, not a fallback.
     */
    void
    acquireArray(Tick busy, std::function<void()> done)
    {
        acquire(array_, busy, std::move(done));
    }

    /** Reserve @p busy ticks of SFU time. */
    void
    acquireSfu(Tick busy, std::function<void()> done)
    {
        acquire(sfu_, busy, std::move(done));
    }

    double
    arrayUtilization(Tick elapsed) const
    {
        return array_.utilization(elapsed);
    }

  private:
    void
    acquire(npu::UnitOccupancy &unit, Tick busy,
            std::function<void()> done)
    {
        CAMLLM_ASSERT(contended_,
                      "NpuArbiter::acquire on a free arbiter");
        eq_.schedule(unit.reserve(eq_.now(), busy), std::move(done));
    }

    EventQueue &eq_;
    bool contended_;
    npu::UnitOccupancy array_;
    npu::UnitOccupancy sfu_;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_NPU_ARBITER_H
