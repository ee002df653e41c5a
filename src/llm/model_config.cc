#include "model_config.h"

namespace camllm::llm {

bool
ModelConfig::valid() const
{
    return n_layers > 0 && d_model > 0 && n_heads > 0 && n_kv_heads > 0 &&
           d_ffn > 0 && vocab > 0 && d_model % n_heads == 0 &&
           n_heads % n_kv_heads == 0;
}

std::uint64_t
ModelConfig::attnParamsPerLayer() const
{
    const std::uint64_t d = d_model;
    const std::uint64_t kv = kvProjDim();
    // Q and O projections are d x d; K and V are d x kvProjDim.
    return 2 * d * d + 2 * d * kv;
}

std::uint64_t
ModelConfig::ffnParamsPerLayer() const
{
    const std::uint64_t d = d_model;
    const std::uint64_t f = d_ffn;
    const std::uint64_t mats = (ffn_style == FfnStyle::Gated) ? 3 : 2;
    return mats * d * f;
}

std::uint64_t
ModelConfig::decodeWeightParams() const
{
    // Per decode step every layer weight is touched once, plus the
    // lm_head projection (vocab x d) regardless of embedding tying:
    // tying shares storage, not read traffic.
    return std::uint64_t(n_layers) *
               (attnParamsPerLayer() + ffnParamsPerLayer()) +
           std::uint64_t(vocab) * d_model;
}

std::uint64_t
ModelConfig::totalParams() const
{
    std::uint64_t embed = std::uint64_t(vocab) * d_model;
    if (!tied_embeddings)
        embed *= 2;
    // Norm gains/biases are negligible but counted for completeness:
    // two norms per layer plus the final norm.
    std::uint64_t norms = (2ull * n_layers + 1) * d_model;
    return std::uint64_t(n_layers) *
               (attnParamsPerLayer() + ffnParamsPerLayer()) +
           embed + norms;
}

ModelConfig
opt6_7b()
{
    ModelConfig m;
    m.name = "OPT-6.7B";
    m.n_layers = 32;
    m.d_model = 4096;
    m.n_heads = 32;
    m.n_kv_heads = 32;
    m.d_ffn = 16384;
    m.vocab = 50272;
    m.ffn_style = FfnStyle::Standard;
    m.tied_embeddings = true;
    return m;
}

ModelConfig
opt13b()
{
    ModelConfig m = opt6_7b();
    m.name = "OPT-13B";
    m.n_layers = 40;
    m.d_model = 5120;
    m.n_heads = 40;
    m.n_kv_heads = 40;
    m.d_ffn = 20480;
    return m;
}

ModelConfig
opt30b()
{
    ModelConfig m = opt6_7b();
    m.name = "OPT-30B";
    m.n_layers = 48;
    m.d_model = 7168;
    m.n_heads = 56;
    m.n_kv_heads = 56;
    m.d_ffn = 28672;
    return m;
}

ModelConfig
opt66b()
{
    ModelConfig m = opt6_7b();
    m.name = "OPT-66B";
    m.n_layers = 64;
    m.d_model = 9216;
    m.n_heads = 72;
    m.n_kv_heads = 72;
    m.d_ffn = 36864;
    return m;
}

ModelConfig
llama2_7b()
{
    ModelConfig m;
    m.name = "Llama2-7B";
    m.n_layers = 32;
    m.d_model = 4096;
    m.n_heads = 32;
    m.n_kv_heads = 32;
    m.d_ffn = 11008;
    m.vocab = 32000;
    m.ffn_style = FfnStyle::Gated;
    m.tied_embeddings = false;
    return m;
}

ModelConfig
llama2_13b()
{
    ModelConfig m = llama2_7b();
    m.name = "Llama2-13B";
    m.n_layers = 40;
    m.d_model = 5120;
    m.n_heads = 40;
    m.n_kv_heads = 40;
    m.d_ffn = 13824;
    return m;
}

ModelConfig
llama2_70b()
{
    ModelConfig m = llama2_7b();
    m.name = "Llama2-70B";
    m.n_layers = 80;
    m.d_model = 8192;
    m.n_heads = 64;
    m.n_kv_heads = 8; // grouped-query attention
    m.d_ffn = 28672;
    return m;
}

std::vector<ModelConfig>
optFamily()
{
    return {opt6_7b(), opt13b(), opt30b(), opt66b()};
}

std::vector<ModelConfig>
llamaFamily()
{
    return {llama2_7b(), llama2_13b(), llama2_70b()};
}

} // namespace camllm::llm
