#include "engine.h"

#include "common/logging.h"
#include "core/decode_stream.h"
#include "flash/flash_system.h"
#include "npu/dram.h"
#include "sim/event_queue.h"

namespace camllm::core {

namespace {

/**
 * One single-request co-simulation: private event queue, DRAM and
 * flash device, one DecodeStream driving one decode step at
 * cfg.seq_len, or a one-shot prefill of @p prefill_tokens when that
 * is nonzero. The multi-request path lives in core::Scheduler and
 * shares these resources across streams instead.
 */
TokenStats
simulateOne(const CamConfig &cfg, const llm::ModelConfig &model,
            const PlanCache &plans, std::uint32_t prefill_tokens)
{
    EventQueue eq;
    npu::DramModel dram(eq, cfg.npu);
    flash::FlashSystem fs(eq, cfg.flash, cfg.tile_window, cfg.slicing);

    DecodeStream::Env env;
    env.cfg = &cfg;
    env.model = &model;
    env.plans = &plans;
    env.eq = &eq;
    env.dram = &dram;
    env.fs = &fs;

    DecodeStream stream(env);
    TokenStats out;
    bool finished = false;
    const auto done = [&](const TokenStats &s) {
        out = s;
        finished = true;
    };
    if (prefill_tokens > 0)
        stream.startPrefillChunk(prefill_tokens, 0, /*last_chunk=*/true,
                                 done);
    else
        stream.startToken(cfg.seq_len, done);
    eq.run();
    CAMLLM_ASSERT(finished, "token did not complete");
    return out;
}

} // namespace

CambriconEngine::CambriconEngine(const CamConfig &config,
                                 const llm::ModelConfig &model)
    : config_(config), model_(model)
{
    if (!config_.flash.valid() || !config_.npu.valid())
        fatal("invalid Cambricon-LLM configuration '%s'",
              config_.name.c_str());
    if (!model_.valid())
        fatal("invalid model configuration '%s'", model_.name.c_str());

    // Capacity check: all weights (plus per-page spare) must place in
    // the flash device. The KV cache lives in DRAM, not here.
    const auto quant = llm::QuantSpec::of(config_.quant);
    const std::uint64_t weight_bytes =
        quant.weightBytes(model_.totalParams());
    const std::uint64_t pages_needed =
        (weight_bytes + config_.flash.geometry.page_bytes - 1) /
        config_.flash.geometry.page_bytes;
    if (pages_needed > config_.flash.geometry.totalPages()) {
        fatal("%s (%llu pages of weights) does not fit the flash "
              "device (%llu pages); add chips or channels",
              model_.name.c_str(), (unsigned long long)pages_needed,
              (unsigned long long)config_.flash.geometry.totalPages());
    }

    plan_cache_ = std::make_unique<PlanCache>(config_.flash, quant,
                                              config_.tilingOptions());
    decode_weight_bytes_ = quant.weightBytes(model_.decodeWeightParams());
}

TokenStats
CambriconEngine::decodeToken() const
{
    return simulateOne(config_, model_, *plan_cache_, 0);
}

TokenStats
CambriconEngine::prefill(std::uint32_t prompt_len) const
{
    CAMLLM_ASSERT(prompt_len > 0);
    return simulateOne(config_, model_, *plan_cache_, prompt_len);
}

GenerateStats
CambriconEngine::generate(std::uint32_t prompt_len,
                          std::uint32_t reply_len) const
{
    CAMLLM_ASSERT(reply_len > 0);
    GenerateStats g;
    g.prefill = prefill(prompt_len);

    // Decode cost is affine in the context length (the DRAM KV term),
    // so two endpoint simulations integrate the whole reply.
    // Only seq_len differs, so the engine's memoized plans still apply.
    CamConfig first = config_;
    first.seq_len = prompt_len + 1;
    CamConfig last = config_;
    last.seq_len = prompt_len + reply_len;
    g.first_decode = simulateOne(first, model_, *plan_cache_, 0);
    g.last_decode = simulateOne(last, model_, *plan_cache_, 0);

    const Tick avg =
        (g.first_decode.token_time + g.last_decode.token_time) / 2;
    g.total_time = g.prefill.token_time + avg * reply_len;
    g.decode_tokens_per_s = double(kSec) / double(avg);
    return g;
}

TilePlan
CambriconEngine::planFor(std::uint64_t rows, std::uint64_t cols) const
{
    return plan_cache_->planFor(rows, cols);
}

} // namespace camllm::core
