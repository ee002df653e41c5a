/**
 * @file
 * Cycle-level utilization model of the NPU's 16x16 weight-stationary
 * systolic array (Section VII-A).
 *
 * The end-to-end engine uses a rate model (2 TOPS) because decode is
 * bandwidth bound; this model answers the validation question behind
 * that shortcut — for which GeMV/GeMM shapes does the array actually
 * approach its peak, and is it ever the bottleneck against the flash
 * stream?
 */

#ifndef CAMLLM_NPU_SYSTOLIC_H
#define CAMLLM_NPU_SYSTOLIC_H

#include <cstdint>

#include "common/units.h"

namespace camllm::npu {

/** Physical configuration of the systolic array. */
struct SystolicParams
{
    std::uint32_t rows = 16; ///< PE rows (output-channel dimension)
    std::uint32_t cols = 16; ///< PE columns (input-channel dimension)
    double freq_ghz = 1.0;

    /**
     * MAC issues per PE per cycle. Four INT8 MACs per PE reconcile a
     * 16x16 array at 1 GHz with the paper's 2 TOPS figure
     * (16*16*4 MACs * 2 ops * 1 GHz = 2.048 TOPS).
     */
    std::uint32_t macs_per_pe = 4;

    double
    peakTops() const
    {
        return double(rows) * cols * macs_per_pe * 2.0 * freq_ghz /
               1000.0;
    }
};

/** Result of mapping one GeMM onto the array. */
struct SystolicEstimate
{
    std::uint64_t cycles = 0;
    double utilization = 0.0; ///< useful MACs / issued MAC slots
    Tick time = 0;
    double effective_tops = 0.0;
};

/**
 * Estimate cycles for an (m x k) weight matrix times k-vector(s) with
 * @p batch right-hand sides (batch = 1 is decode GeMV; batch = prompt
 * length is prefill GeMM). Weight-stationary mapping: each (rows x
 * cols) weight tile is loaded once and streams `batch` operands
 * through, paying a pipeline fill of rows + cols cycles per tile.
 */
SystolicEstimate estimateGemm(const SystolicParams &params,
                              std::uint64_t m, std::uint64_t k,
                              std::uint64_t batch);

/**
 * FIFO single-server occupancy of one NPU execution unit (the
 * systolic array, or the SFU). The end-to-end engine historically let
 * concurrent streams overlap their NPU time for free; reserving
 * through this tracker instead serializes grants in arrival order, so
 * a shared array is busy for the sum of its clients' compute — the
 * contention model behind core::NpuArbiter.
 */
class UnitOccupancy
{
  public:
    /**
     * Reserve @p busy ticks of unit time requested at @p now. The
     * grant starts at max(now, end of the previously granted work)
     * and the returned tick is when it completes.
     */
    Tick reserve(Tick now, Tick busy);

    /** Fraction of [0, elapsed) the unit was reserved. */
    double
    utilization(Tick elapsed) const
    {
        return elapsed == 0 ? 0.0
                            : double(busy_ticks_) / double(elapsed);
    }

  private:
    Tick free_at_ = 0;
    std::uint64_t busy_ticks_ = 0;
};

} // namespace camllm::npu

#endif // CAMLLM_NPU_SYSTOLIC_H
