/**
 * @file
 * Paged KV-cache block allocator over a bounded DRAM budget.
 *
 * Real devices bound serving batch size by the DRAM left over for KV
 * after weights and activations; the pool models that wall. KV
 * capacity is divided into fixed-size blocks of `block_tokens` tokens
 * (each block holds the K and V entries of those tokens across every
 * model layer), and each request owns a block table — the ordered
 * list of blocks its logical KV stream maps onto. The scheduler grows
 * a table as prefill chunks and decode steps append KV, releases it
 * when the request retires, and evicts it whole when the request is
 * preempted under memory pressure.
 *
 * Blocks are refcounted so a future prefix-sharing scheduler can map
 * one block into several tables; today every table holds its blocks
 * at refcount 1. Double-free and leak bugs are loud: over-release
 * panics, and audit() reports the blocks still held.
 *
 * An unbounded pool (budget_bytes == 0) never refuses an allocation
 * and exists so bounded-path plumbing can run with capacity effects
 * disabled — every event sequence must then replay the pre-paging
 * scheduler bit-identically (enforced by tests).
 */

#ifndef CAMLLM_CORE_KV_POOL_H
#define CAMLLM_CORE_KV_POOL_H

#include <cstdint>
#include <vector>

namespace camllm::core {

/** One request's ordered block list; block i holds logical tokens
 *  [i * block_tokens, (i+1) * block_tokens). Coverage is derived
 *  from blocks.size() — there is no second copy to drift. */
struct KvBlockTable
{
    std::vector<std::uint32_t> blocks;

    bool empty() const { return blocks.empty(); }
};

/** Fixed-block KV-cache allocator with refcounts and usage stats. */
class KvPool
{
  public:
    /**
     * @p budget_bytes caps the pool (0 = unbounded); @p block_tokens
     * is the block granularity in tokens and @p block_bytes the DRAM
     * footprint of one block (tokens x KV-dim x act bytes x layers).
     * A bounded pool requires block_tokens >= 1 and holds
     * budget_bytes / block_bytes whole blocks.
     */
    KvPool(std::uint64_t budget_bytes, std::uint32_t block_tokens,
           std::uint64_t block_bytes);

    bool bounded() const { return total_blocks_ != kUnbounded; }
    std::uint32_t blockTokens() const { return block_tokens_; }

    /** Whole blocks the budget holds (kUnbounded when unbounded). */
    std::uint64_t totalBlocks() const { return total_blocks_; }

    /** Blocks needed to cover @p tokens of KV. */
    std::uint64_t blocksForTokens(std::uint64_t tokens) const;

    /** True when a table covering @p tokens could be grown/allocated
     *  from the free blocks right now. */
    bool canGrow(const KvBlockTable &t, std::uint64_t tokens) const;

    /**
     * Grow @p t to cover @p tokens, allocating the missing blocks.
     * Returns false (and changes nothing) when the pool is dry. A
     * request whose table already covers @p tokens always succeeds.
     */
    bool tryGrow(KvBlockTable &t, std::uint64_t tokens);

    /** Drop one reference on every block of @p t and clear it (the
     *  retire / eviction path). */
    void release(KvBlockTable &t);

    /** Add a reference to @p block (prefix sharing between tables). */
    void retain(std::uint32_t block);

    /** Drop a reference on @p block; frees it at refcount 0. */
    void releaseBlock(std::uint32_t block);

    /** Current reference count of @p block (0 = free). */
    std::uint32_t refCount(std::uint32_t block) const
    {
        return block < refcount_.size() ? refcount_[block] : 0;
    }

    // --- usage statistics ----------------------------------------------
    std::uint64_t blocksInUse() const { return in_use_; }
    std::uint64_t freeBlocks() const;
    std::uint64_t highWaterBlocks() const { return high_water_; }
    std::uint64_t allocCount() const { return allocs_; }
    std::uint64_t freeCount() const { return frees_; }

    /** Blocks still referenced — 0 after every table was released.
     *  The scheduler audits this at drain; tests assert it. NOTE:
     *  this is a *block* count — a block shared at refcount N leaks
     *  N-1 references invisibly here, so the drain audit must check
     *  leakedRefs() too (it once did not, and a shared block released
     *  only once passed the audit). */
    std::uint64_t leakedBlocks() const { return in_use_; }

    /** References still outstanding across every block — every
     *  alloc/retain adds one, every releaseBlock removes one. 0 after
     *  drain even when sharing held blocks at refcount > 1. */
    std::uint64_t leakedRefs() const { return refs_outstanding_; }

    static constexpr std::uint64_t kUnbounded = ~std::uint64_t(0);

  private:
    std::uint32_t allocBlock();

    std::uint32_t block_tokens_ = 0;
    std::uint64_t block_bytes_ = 0;
    std::uint64_t total_blocks_ = kUnbounded;

    std::vector<std::uint32_t> free_list_; ///< LIFO, deterministic
    std::vector<std::uint32_t> refcount_;  ///< per allocated block id
    std::uint64_t in_use_ = 0;
    std::uint64_t refs_outstanding_ = 0;
    std::uint64_t high_water_ = 0;
    std::uint64_t allocs_ = 0;
    std::uint64_t frees_ = 0;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_KV_POOL_H
