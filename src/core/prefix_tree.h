/**
 * @file
 * Radix tree over prompt prefixes mapping shared KV blocks into
 * request block tables.
 *
 * Thousands of requests carrying the same system prompt write the
 * same leading KV positions; the tree caches those blocks once and
 * maps them into every later table through KvPool::retain — the first
 * real user of the pool's refcount path. Each cached prefix is a path
 * of full blocks: block k of prefix p covers prompt tokens
 * [k*B, (k+1)*B) and is only cached once the whole block has been
 * prefilled. Today the tree branches at the root (one path per
 * prefix id — request traces tag which canned prompt they lead with);
 * mid-path branching for nested prefixes is the natural extension and
 * changes none of this interface.
 *
 * The tree holds one pool reference per cached block, so a cached
 * block survives the eviction or retirement of every table it was
 * mapped into. Under pool pressure the scheduler asks the tree to
 * drop cold cache-only blocks (refcount 1 — no live table maps them)
 * before it preempts anyone; at drain it releases everything so the
 * pool's leak audits stay exact. All traversal orders are
 * deterministic (std::map, last-touch tie-break on lower id).
 */

#ifndef CAMLLM_CORE_PREFIX_TREE_H
#define CAMLLM_CORE_PREFIX_TREE_H

#include <cstdint>
#include <map>
#include <vector>

#include "core/kv_pool.h"

namespace camllm::core {

/** Block-granular prefix cache over a KvPool. */
class PrefixTree
{
  public:
    explicit PrefixTree(KvPool &pool) : pool_(pool) {}

    /**
     * Map the longest cached chain of prefix @p prefix_id — at most
     * @p max_blocks blocks — into @p table: each matched block is
     * retained and appended. @p table must be empty of prompt blocks
     * (matching only ever lands at position 0). Returns the matched
     * block count and refreshes the chain's last-touch stamp.
     */
    std::size_t match(std::uint64_t prefix_id, std::size_t max_blocks,
                      std::vector<std::uint32_t> &table);

    /**
     * Cache @p block as block @p index of prefix @p prefix_id. A
     * chain grows strictly in order, so only index == chain length
     * inserts (anything below is already cached, anything above waits
     * for its predecessor); the tree retains the block. Returns true
     * when newly cached.
     */
    bool insert(std::uint64_t prefix_id, std::size_t index,
                std::uint32_t block);

    /**
     * Drop up to @p want cache-only blocks (pool refcount 1),
     * coldest chain first, each chain from its tail so every chain
     * stays a contiguous prefix. Returns how many blocks were
     * actually freed back to the pool. The scheduler calls this when
     * the pool runs dry, before resorting to preemption.
     */
    std::uint64_t dropCold(std::uint64_t want);

    /** Release every cached reference (drain teardown). */
    void releaseAll();

    std::uint64_t hitBlocks() const { return hit_blocks_; }
    std::uint64_t insertedBlocks() const { return inserted_; }
    std::uint64_t droppedBlocks() const { return dropped_; }

  private:
    struct Chain
    {
        std::vector<std::uint32_t> blocks;
        std::uint64_t last_touch = 0;
    };

    KvPool &pool_;
    std::map<std::uint64_t, Chain> chains_;
    std::uint64_t touch_seq_ = 0;
    std::uint64_t cached_ = 0;
    std::uint64_t hit_blocks_ = 0;
    std::uint64_t inserted_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_PREFIX_TREE_H
