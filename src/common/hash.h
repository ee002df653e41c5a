/**
 * @file
 * Small FNV-1a hashing helper for deterministic seeds and result
 * fingerprints. Hashes the byte representation of trivially-copyable
 * values plus strings.
 */

#ifndef CAMLLM_COMMON_HASH_H
#define CAMLLM_COMMON_HASH_H

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace camllm {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffset = 14695981039346656037ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    Fnv1a &
    addBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= kPrime;
        }
        return *this;
    }

    /** Hash a trivially-copyable value by representation. Floating
     *  values must be written through a normalized copy (done here)
     *  so padding bytes never leak in. */
    template <typename T>
    Fnv1a &
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "hash only flat values");
        unsigned char buf[sizeof(T)];
        std::memcpy(buf, &v, sizeof(T));
        return addBytes(buf, sizeof(T));
    }

    Fnv1a &
    add(const std::string &s)
    {
        add(s.size());
        return addBytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = kOffset;
};

/** Order-dependent 64-bit hash combiner. */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    Fnv1a h;
    h.add(a);
    h.add(b);
    return h.value();
}

} // namespace camllm

#endif // CAMLLM_COMMON_HASH_H
