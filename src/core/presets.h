/**
 * @file
 * End-to-end Cambricon-LLM configurations, including the paper's
 * Table II presets (S / M / L) and every ablation knob used by the
 * evaluation section.
 */

#ifndef CAMLLM_CORE_PRESETS_H
#define CAMLLM_CORE_PRESETS_H

#include <cstdint>
#include <string>

#include "core/tiling.h"
#include "flash/params.h"
#include "llm/quant.h"
#include "npu/params.h"

namespace camllm::core {

/** Full system + experiment configuration. */
struct CamConfig
{
    std::string name = "Cambricon-LLM";
    flash::FlashParams flash;
    npu::NpuParams npu;
    llm::QuantMode quant = llm::QuantMode::W8A8;

    /** Decode context length (KV entries already cached). */
    std::uint32_t seq_len = 512;

    /** Slice Control on the read stream (Fig 12 ablation). */
    bool slicing = true;

    /** Hardware-aware tiling, i.e.\ NPU co-computation (Fig 14). */
    bool hybrid_tiling = true;

    /** Allow the read stream to prefetch the next GeMV's weights into
     *  the NPU buffer while attention/SFU phases run. */
    bool prefetch = true;

    /** Force a tile shape (Fig 13); empty selects the planner optimum. */
    std::optional<TileShape> forced_tile;

    /** Bytes per result element returned from a core (paper: 1). */
    std::uint32_t out_elem_bytes = 1;

    /** Read-compute tiles in flight per channel. */
    std::uint32_t tile_window = 3;

    /**
     * Transformer layers to simulate before extrapolating the steady
     * state to the full depth (all layers of a decode step are
     * identical). Must be >= 3 whenever the model is deeper.
     */
    std::uint32_t sample_layers = 4;

    TilingOptions
    tilingOptions() const
    {
        TilingOptions o;
        o.hybrid = hybrid_tiling;
        o.forced_tile = forced_tile;
        o.out_elem_bytes = out_elem_bytes;
        return o;
    }
};

/** Table II: 8 channels x 2 chips. */
CamConfig presetS();

/** Table II: 16 channels x 4 chips. */
CamConfig presetM();

/** Table II: 32 channels x 8 chips. */
CamConfig presetL();

/** Preset with an arbitrary channel/chip count (Fig 15 sweeps). */
CamConfig presetCustom(std::uint32_t channels, std::uint32_t chips);

} // namespace camllm::core

#endif // CAMLLM_CORE_PRESETS_H
