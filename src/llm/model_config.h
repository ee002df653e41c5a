/**
 * @file
 * LLM architecture descriptions for the models evaluated in the paper
 * (OPT 6.7B/13B/30B/66B and Llama2 7B/13B/70B) plus parameter-count
 * and weight-size helpers.
 */

#ifndef CAMLLM_LLM_MODEL_CONFIG_H
#define CAMLLM_LLM_MODEL_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace camllm::llm {

/** Feed-forward block style. */
enum class FfnStyle
{
    Standard, ///< two matrices (OPT): up then down
    Gated     ///< three matrices (Llama): gate, up, down
};

/** Decoder-only transformer architecture description. */
struct ModelConfig
{
    std::string name;
    std::uint32_t n_layers = 0;
    std::uint32_t d_model = 0;
    std::uint32_t n_heads = 0;
    std::uint32_t n_kv_heads = 0; ///< < n_heads implies GQA
    std::uint32_t d_ffn = 0;
    std::uint32_t vocab = 0;
    FfnStyle ffn_style = FfnStyle::Standard;
    bool tied_embeddings = true; ///< lm_head shares the embedding

    std::uint32_t headDim() const { return d_model / n_heads; }

    /** Output width of one K (or V) projection. */
    std::uint32_t kvProjDim() const { return n_kv_heads * headDim(); }

    /** Total K+V width per token (bytes follow activation width). */
    std::uint32_t kvDim() const { return kvProjDim() * 2; }

    /** Weight-element count of the attention block of one layer. */
    std::uint64_t attnParamsPerLayer() const;

    /** Weight-element count of the FFN block of one layer. */
    std::uint64_t ffnParamsPerLayer() const;

    /** Weight elements read per decode step (layers + lm_head). */
    std::uint64_t decodeWeightParams() const;

    /** Total parameters including embeddings. */
    std::uint64_t totalParams() const;

    /** KV-cache bytes at context length @p seq with @p act_bytes-wide
     *  cache entries. */
    std::uint64_t
    kvCacheBytes(std::uint32_t seq, std::uint32_t act_bytes) const
    {
        return std::uint64_t(n_layers) * seq * kvDim() * act_bytes;
    }

    bool valid() const;
};

// --- model zoo -----------------------------------------------------------
ModelConfig opt6_7b();
ModelConfig opt13b();
ModelConfig opt30b();
ModelConfig opt66b();
ModelConfig llama2_7b();
ModelConfig llama2_13b();
ModelConfig llama2_70b();

/** All OPT models in Fig 9(a) order. */
std::vector<ModelConfig> optFamily();

/** All Llama2 models in Fig 9(b) order. */
std::vector<ModelConfig> llamaFamily();

} // namespace camllm::llm

#endif // CAMLLM_LLM_MODEL_CONFIG_H
