#include "kernels.h"

#include <algorithm>
#include <cmath>

namespace camllm::llm {

void
gemvScalar(const QTensor &w, std::span<const float> x, std::span<float> y)
{
    CAMLLM_ASSERT(x.size() == w.cols, "gemv: x has %zu elems, W has %u cols",
                  x.size(), w.cols);
    CAMLLM_ASSERT(y.size() == w.rows);
    const float s = w.scale;
    for (std::uint32_t r = 0; r < w.rows; ++r) {
        const std::int8_t *row = w.data.data() + std::size_t(r) * w.cols;
        float acc = 0.0f;
        for (std::uint32_t c = 0; c < w.cols; ++c)
            acc += float(row[c]) * x[c];
        y[r] = acc * s;
    }
}

void
gemv(const QTensor &w, std::span<const float> x, std::span<float> y)
{
    CAMLLM_ASSERT(x.size() == w.cols, "gemv: x has %zu elems, W has %u cols",
                  x.size(), w.cols);
    CAMLLM_ASSERT(y.size() == w.rows);
    const float s = w.scale;
    const std::uint32_t cols = w.cols;
    const std::size_t stride = cols;
    const float *xv = x.data();

    // Register-blocked 8-row kernel: x is loaded once per column for
    // all eight rows, and each row keeps a single scalar accumulator
    // updated in strict column order, so every y[r] sums in exactly
    // the same float order as the scalar loop (bit-exact). Eight
    // independent add chains hide the FP-add latency the one-row loop
    // serializes on; the dequant scale is fused once per row block.
    std::uint32_t r = 0;
    for (; r + 8 <= w.rows; r += 8) {
        const std::int8_t *r0 = w.data.data() + std::size_t(r) * stride;
        const std::int8_t *r1 = r0 + stride;
        const std::int8_t *r2 = r1 + stride;
        const std::int8_t *r3 = r2 + stride;
        const std::int8_t *r4 = r3 + stride;
        const std::int8_t *r5 = r4 + stride;
        const std::int8_t *r6 = r5 + stride;
        const std::int8_t *r7 = r6 + stride;
        float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
        float a4 = 0.0f, a5 = 0.0f, a6 = 0.0f, a7 = 0.0f;
        std::uint32_t c = 0;
        for (; c + 2 <= cols; c += 2) {
            const float x0 = xv[c], x1 = xv[c + 1];
            a0 += float(r0[c]) * x0;
            a1 += float(r1[c]) * x0;
            a2 += float(r2[c]) * x0;
            a3 += float(r3[c]) * x0;
            a4 += float(r4[c]) * x0;
            a5 += float(r5[c]) * x0;
            a6 += float(r6[c]) * x0;
            a7 += float(r7[c]) * x0;
            a0 += float(r0[c + 1]) * x1;
            a1 += float(r1[c + 1]) * x1;
            a2 += float(r2[c + 1]) * x1;
            a3 += float(r3[c + 1]) * x1;
            a4 += float(r4[c + 1]) * x1;
            a5 += float(r5[c + 1]) * x1;
            a6 += float(r6[c + 1]) * x1;
            a7 += float(r7[c + 1]) * x1;
        }
        for (; c < cols; ++c) {
            const float xc = xv[c];
            a0 += float(r0[c]) * xc;
            a1 += float(r1[c]) * xc;
            a2 += float(r2[c]) * xc;
            a3 += float(r3[c]) * xc;
            a4 += float(r4[c]) * xc;
            a5 += float(r5[c]) * xc;
            a6 += float(r6[c]) * xc;
            a7 += float(r7[c]) * xc;
        }
        y[r] = a0 * s;
        y[r + 1] = a1 * s;
        y[r + 2] = a2 * s;
        y[r + 3] = a3 * s;
        y[r + 4] = a4 * s;
        y[r + 5] = a5 * s;
        y[r + 6] = a6 * s;
        y[r + 7] = a7 * s;
    }
    for (; r < w.rows; ++r) {
        const std::int8_t *row = w.data.data() + std::size_t(r) * stride;
        float acc = 0.0f;
        for (std::uint32_t c = 0; c < cols; ++c)
            acc += float(row[c]) * xv[c];
        y[r] = acc * s;
    }
}

void
layerNorm(std::span<float> x, float eps)
{
    if (x.empty())
        return;
    float mean = 0.0f;
    for (float v : x)
        mean += v;
    mean /= float(x.size());
    float var = 0.0f;
    for (float v : x)
        var += (v - mean) * (v - mean);
    var /= float(x.size());
    float inv = 1.0f / std::sqrt(var + eps);
    for (float &v : x)
        v = (v - mean) * inv;
}

void
softmaxInPlace(std::span<float> x)
{
    if (x.empty())
        return;
    float mx = x[0];
    for (float v : x)
        mx = std::max(mx, v);
    float sum = 0.0f;
    for (float &v : x) {
        v = std::exp(v - mx);
        sum += v;
    }
    for (float &v : x)
        v /= sum;
}

void
geluInPlace(std::span<float> x)
{
    constexpr float k = 0.7978845608028654f; // sqrt(2/pi)
    for (float &v : x) {
        float inner = k * (v + 0.044715f * v * v * v);
        v = 0.5f * v * (1.0f + std::tanh(inner));
    }
}

void
siluInPlace(std::span<float> x)
{
    for (float &v : x)
        v = v / (1.0f + std::exp(-v));
}

std::size_t
argmax(std::span<const float> x)
{
    CAMLLM_ASSERT(!x.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < x.size(); ++i)
        if (x[i] > x[best])
            best = i;
    return best;
}

float
dot(std::span<const float> a, std::span<const float> b)
{
    CAMLLM_ASSERT(a.size() == b.size());
    float acc = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

} // namespace camllm::llm
