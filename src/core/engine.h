/**
 * @file
 * The Cambricon-LLM end-to-end engine: one decode step, one prefill or
 * one prompt + reply exchange of an LLM through the flash + NPU
 * co-simulation.
 *
 * Weight GeMVs are split by the tiling planner: the flash share is
 * issued as read-compute tiles (input broadcast, on-die multiply,
 * result return), the NPU share as sliced page reads that fill the
 * channel bubbles. Attention ops stream the KV cache from DRAM; SFU
 * ops run on the NPU. Because every decode layer is identical, the
 * simulation runs a sample of layers and extrapolates the measured
 * steady state to the full depth.
 *
 * The engine is a single-request view of core::Scheduler: each call
 * serves one request on a fresh device and reports the stats of the
 * step that emitted its first token, so a batch of one through
 * Scheduler::serve() is the engine by construction.
 *
 * Every unit of device work (decode step, prefill chunk, recompute
 * chunk) is measured as one TokenStats, an additive record that the
 * stream snapshots, subtracts and extrapolates; a per-resource
 * breakdown of a unit is a further field of it.
 */

#ifndef CAMLLM_CORE_ENGINE_H
#define CAMLLM_CORE_ENGINE_H

#include <cstdint>
#include <memory>

#include "common/units.h"
#include "core/presets.h"
#include "core/tiling.h"
#include "llm/model_config.h"

namespace camllm::core {

/**
 * Measured (and possibly extrapolated) results of one unit: a decode
 * step or a prefill/recompute chunk. It is an additive record: every
 * field but the derived tokens_per_s, avg_channel_util, extrapolated
 * and simulated_layers sums over spans, so the stream measures a unit
 * by subtracting two snapshots (operator-) and extrapolates the
 * sampled layers by adding a per-layer delta k times (addScaled). The
 * derived fields are set once the unit is measured; the arithmetic
 * leaves them default.
 */
struct TokenStats
{
    Tick token_time = 0;
    double tokens_per_s = 0.0;

    /** Mean flash-channel bus utilization over the token. */
    double avg_channel_util = 0.0;
    /** Channel busy ticks summed over every channel (the numerator of
     *  avg_channel_util). */
    double busy_ticks = 0.0;

    std::uint64_t channel_bytes_high = 0; ///< rc inputs + results
    std::uint64_t channel_bytes_low = 0;  ///< read-page data
    std::uint64_t dram_bytes = 0;         ///< KV cache traffic
    std::uint64_t array_read_bytes = 0;   ///< NAND array reads

    std::uint64_t pages_computed = 0;
    std::uint64_t pages_read = 0;

    double npu_flops = 0.0;
    double flash_flops = 0.0;

    std::uint64_t weight_bytes_flash = 0;
    std::uint64_t weight_bytes_npu = 0;

    bool extrapolated = false;
    std::uint32_t simulated_layers = 0;

    /** The additive fields of *this minus @p o; derived fields stay
     *  default. */
    TokenStats operator-(const TokenStats &o) const;

    /** Add @p d's additive fields @p k times over. */
    void addScaled(const TokenStats &d, std::uint64_t k);

    /** Bytes that crossed the D2D link or the DRAM bus (Fig 16a). */
    std::uint64_t
    transferBytes() const
    {
        return channel_bytes_high + channel_bytes_low + dram_bytes;
    }

    /** Realized fraction of weights computed in flash. */
    double
    alphaEffective() const
    {
        const double tot =
            double(weight_bytes_flash) + double(weight_bytes_npu);
        return tot > 0.0 ? double(weight_bytes_flash) / tot : 0.0;
    }
};

/** Aggregate results of a full prompt + reply exchange. */
struct GenerateStats
{
    TokenStats prefill;      ///< prompt ingestion (one pass)
    TokenStats first_decode; ///< decode step at context prompt
    TokenStats last_decode;  ///< decode step at context prompt+reply-1
    Tick total_time = 0;     ///< prefill + all decode steps
    double decode_tokens_per_s = 0.0;

    double totalSeconds() const { return ticksToSeconds(total_time); }
};

class Scheduler;

/** Single-request decode/prefill co-simulation for a (config, model)
 *  pair, served through one core::Scheduler. */
class CambriconEngine
{
  public:
    /** Fatal when the config or model is invalid or the weights do not
     *  fit the flash device (the Scheduler's checks). */
    CambriconEngine(const CamConfig &config, const llm::ModelConfig &model);
    ~CambriconEngine();

    /** Serve one decode-only request at context config().seq_len and
     *  return the stats of its decode step. */
    TokenStats decodeToken() const;

    /**
     * Serve one prefill-only request over a @p prompt_len-token
     * prompt: weights stream through the device once (no in-flash
     * computing — the batched GeMM runs on the NPU, which is what
     * makes prefill compute-friendly), attention costs O(prompt^2).
     */
    TokenStats prefill(std::uint32_t prompt_len) const;

    /**
     * A whole exchange: prefill of @p prompt_len tokens then
     * @p reply_len decode steps with the KV cache growing, at contexts
     * prompt_len .. prompt_len + reply_len - 1. Decode cost is affine
     * in context length, so the reply time integrates the two endpoint
     * decode steps (trapezoid rule), each served alone.
     */
    GenerateStats generate(std::uint32_t prompt_len,
                           std::uint32_t reply_len) const;

    /** The tile plan the engine will use for a rows x cols GeMV. */
    TilePlan planFor(std::uint64_t rows, std::uint64_t cols) const;

    const CamConfig &config() const;
    const llm::ModelConfig &model() const;

    /** Total weight bytes touched per decode step. */
    std::uint64_t decodeWeightBytes() const { return decode_weight_bytes_; }

    /** The scheduler's memoized tile plans, shared by every call. */
    const PlanCache &planCache() const;

  private:
    std::unique_ptr<Scheduler> sched_;
    std::uint64_t decode_weight_bytes_ = 0;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_ENGINE_H
