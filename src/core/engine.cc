#include "engine.h"

#include "common/logging.h"
#include "core/scheduler.h"

namespace camllm::core {

namespace {

/** Serve @p req alone and return the stats of its first-token step. */
TokenStats
serveOne(const Scheduler &sched, const ServeRequest &req)
{
    return sched.serve({req}, SchedOptions{}).requests.front().first_token;
}

/** A decode-only request: one decode step at context @p seq. */
ServeRequest
decodeAt(std::uint32_t seq)
{
    return ServeRequest{.prompt = 0, .context = seq, .decode_tokens = 1};
}

} // namespace

TokenStats
TokenStats::operator-(const TokenStats &o) const
{
    TokenStats d;
    d.token_time = token_time - o.token_time;
    d.busy_ticks = busy_ticks - o.busy_ticks;
    d.channel_bytes_high = channel_bytes_high - o.channel_bytes_high;
    d.channel_bytes_low = channel_bytes_low - o.channel_bytes_low;
    d.dram_bytes = dram_bytes - o.dram_bytes;
    d.array_read_bytes = array_read_bytes - o.array_read_bytes;
    d.pages_computed = pages_computed - o.pages_computed;
    d.pages_read = pages_read - o.pages_read;
    d.npu_flops = npu_flops - o.npu_flops;
    d.flash_flops = flash_flops - o.flash_flops;
    d.weight_bytes_flash = weight_bytes_flash - o.weight_bytes_flash;
    d.weight_bytes_npu = weight_bytes_npu - o.weight_bytes_npu;
    return d;
}

void
TokenStats::addScaled(const TokenStats &d, std::uint64_t k)
{
    token_time += d.token_time * k;
    busy_ticks += d.busy_ticks * double(k);
    channel_bytes_high += d.channel_bytes_high * k;
    channel_bytes_low += d.channel_bytes_low * k;
    dram_bytes += d.dram_bytes * k;
    array_read_bytes += d.array_read_bytes * k;
    pages_computed += d.pages_computed * k;
    pages_read += d.pages_read * k;
    npu_flops += d.npu_flops * double(k);
    flash_flops += d.flash_flops * double(k);
    weight_bytes_flash += d.weight_bytes_flash * k;
    weight_bytes_npu += d.weight_bytes_npu * k;
}

CambriconEngine::CambriconEngine(const CamConfig &config,
                                 const llm::ModelConfig &model)
    : sched_(std::make_unique<Scheduler>(config, model)),
      decode_weight_bytes_(llm::QuantSpec::of(config.quant)
                               .weightBytes(model.decodeWeightParams()))
{
}

CambriconEngine::~CambriconEngine() = default;

TokenStats
CambriconEngine::decodeToken() const
{
    return serveOne(*sched_, decodeAt(config().seq_len));
}

TokenStats
CambriconEngine::prefill(std::uint32_t prompt_len) const
{
    CAMLLM_ASSERT(prompt_len > 0);
    return serveOne(*sched_, ServeRequest{.prompt = prompt_len,
                                          .context = 0,
                                          .decode_tokens = 0});
}

GenerateStats
CambriconEngine::generate(std::uint32_t prompt_len,
                          std::uint32_t reply_len) const
{
    CAMLLM_ASSERT(reply_len > 0);
    GenerateStats g;
    g.prefill = prefill(prompt_len);

    // Decode cost is affine in the context length (the DRAM KV term),
    // so two endpoint decode steps integrate the whole reply: the
    // reply's steps run at kv_base prompt_len .. prompt_len + reply_len
    // - 1, as the scheduler serves them.
    g.first_decode = serveOne(*sched_, decodeAt(prompt_len));
    g.last_decode =
        serveOne(*sched_, decodeAt(prompt_len + reply_len - 1));

    const Tick avg =
        (g.first_decode.token_time + g.last_decode.token_time) / 2;
    g.total_time = g.prefill.token_time + avg * reply_len;
    g.decode_tokens_per_s = double(kSec) / double(avg);
    return g;
}

TilePlan
CambriconEngine::planFor(std::uint64_t rows, std::uint64_t cols) const
{
    return planCache().planFor(rows, cols);
}

const CamConfig &
CambriconEngine::config() const
{
    return sched_->config();
}

const llm::ModelConfig &
CambriconEngine::model() const
{
    return sched_->model();
}

const PlanCache &
CambriconEngine::planCache() const
{
    return sched_->planCache();
}

} // namespace camllm::core
