/**
 * @file
 * Functional kernels for the INT8 inference path: GeMV with float
 * accumulation, layer norm, softmax, GELU/SiLU and small helpers.
 * These compute real numbers (unlike the timing models) so flash bit
 * errors propagate to task accuracy exactly as in the paper's
 * PyTorch-injection methodology.
 */

#ifndef CAMLLM_LLM_KERNELS_H
#define CAMLLM_LLM_KERNELS_H

#include <cstddef>
#include <span>
#include <vector>

#include "llm/tensor.h"

namespace camllm::llm {

/**
 * y = W x with INT8 weights, float activations. y.size() == W.rows.
 * Register-blocked (8 rows x 2 unrolled columns); bit-exact with
 * gemvScalar because each row accumulates in strict column order.
 */
void gemv(const QTensor &w, std::span<const float> x, std::span<float> y);

/** Scalar reference implementation of gemv (tests and benches). */
void gemvScalar(const QTensor &w, std::span<const float> x,
                std::span<float> y);

/** In-place layer normalization (unit gain, zero bias). */
void layerNorm(std::span<float> x, float eps = 1e-5f);

/** In-place numerically-stable softmax. */
void softmaxInPlace(std::span<float> x);

/** In-place tanh-approximation GELU. */
void geluInPlace(std::span<float> x);

/** In-place SiLU (x * sigmoid(x)). */
void siluInPlace(std::span<float> x);

/** Index of the maximum element (first on ties). */
std::size_t argmax(std::span<const float> x);

/** Dot product of two equal-length float vectors. */
float dot(std::span<const float> a, std::span<const float> b);

} // namespace camllm::llm

#endif // CAMLLM_LLM_KERNELS_H
