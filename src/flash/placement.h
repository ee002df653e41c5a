/**
 * @file
 * Flash capacity accounting and per-plane wear state.
 *
 * The map counts resident pages per plane; it never assigns page
 * addresses. The resident weight image is seeded striped evenly
 * across every plane at boot, a dead channel's pages are spread over
 * the survivors' free space, and swapped-out KV occupies a reserved
 * quota. Request timing is driven by the channel queues, not by this
 * map.
 *
 * Every program/erase this map performs — boot seeding, KV swap-outs,
 * dead-channel remap rebuilds, retention-refresh re-writes —
 * increments the target plane's P/E counter, so effective wear grows
 * where writes actually land. The fault layer reads that per-plane
 * wear back through planeWear()/planeAge() to derive each read's
 * uncorrectable-page probability, closing the loop between placement
 * policy and the failure schedule.
 */

#ifndef CAMLLM_FLASH_PLACEMENT_H
#define CAMLLM_FLASH_PLACEMENT_H

#include <cstdint>
#include <vector>

#include "flash/params.h"

namespace camllm::flash {

/** Placement policy for programs: remap fill order, KV swap-out
 *  targets and refresh re-write targets. */
enum class WearPolicy : std::uint8_t
{
    /** Legacy bump/round-robin order (wear-oblivious). */
    Bump = 0,

    /** Least-worn plane first, so program wear levels out instead of
     *  compounding on already-hot planes. */
    LeastWorn = 1,
};

/** Per-plane page counts and wear over the whole device. */
class WeightPlacement
{
  public:
    explicit WeightPlacement(const FlashGeometry &g);

    /**
     * Bulk-seed @p pages striped evenly across every plane — the
     * resident weight image as loaded at boot. The fault layer uses
     * this so a dead channel knows how much data it strands. Seeding
     * programs count toward plane wear like any other write. Each
     * call's remainder pages start at the plane after the one where
     * the previous call's remainder ended, so seeding in several
     * calls stays even and can fill the device exactly.
     */
    void seedStriped(std::uint64_t pages);

    /** Pages currently resident on @p channel (0 once it is dead). */
    std::uint64_t pagesOnChannel(std::uint32_t channel) const;

    /**
     * Channel @p channel died: retire its capacity and move its pages
     * onto the surviving channels' planes, spread as evenly as their
     * free space allows (least-worn survivors first under LeastWorn).
     * Returns the page count moved (the rebuild traffic the caller
     * charges over the surviving buses). Every re-written page
     * programs its destination plane. Fatal when the survivors cannot
     * hold the strands.
     */
    std::uint64_t remapChannel(std::uint32_t channel);

    bool channelDead(std::uint32_t channel) const
    {
        return channel_dead_[channel];
    }

    // --- reserved KV-swap region ---------------------------------------
    /**
     * Carve @p pages out of the device's remaining free capacity as
     * the KV-swap region. Swapped-out KV blocks program into this
     * quota (wear-counted like any other write) and free their pages
     * again when streamed back in. Fatal when the region does not fit
     * the free space; call once.
     */
    void reserveKvRegion(std::uint64_t pages);

    std::uint64_t kvLivePages() const { return kv_live_pages_; }

    /**
     * Program @p pages of swapped-out KV into the region: quota is
     * checked first (false = region full, caller falls back to
     * recompute), then each page's program wear lands on a plane
     * chosen by the wear policy — round-robin over alive planes under
     * Bump, the least-worn alive plane under LeastWorn.
     */
    bool kvProgram(std::uint64_t pages);

    /** Swapped-in (or discarded) KV: return @p pages to the region. */
    void kvFree(std::uint64_t pages);

    std::uint64_t pagesAllocated() const { return allocated_; }

    /** Device capacity excluding retired (dead-channel) planes. */
    std::uint64_t
    capacityPages() const
    {
        return geometry_.totalPages() - retired_pages_;
    }

    /** Fraction of live device pages allocated. Fatal when every
     *  channel is offline (no live capacity to divide by). */
    double occupancy() const;

    /** Remaining free pages across the device. Fatal when every
     *  channel is offline. */
    std::uint64_t freePages() const;

    // --- per-plane wear state ------------------------------------------
    /** Flat plane index for (channel, die-in-channel, plane). */
    std::size_t planeIndex(std::uint32_t channel,
                           std::uint32_t die_in_channel,
                           std::uint32_t plane) const;

    /** Total planes across the device (dead channels included). */
    std::size_t planeCount() const { return next_page_.size(); }

    /** Channel a flat plane index belongs to. */
    std::uint32_t planeChannel(std::size_t idx) const;

    void setWearPolicy(WearPolicy p) { policy_ = p; }
    WearPolicy wearPolicy() const { return policy_; }

    /**
     * Seed per-plane wear: base P/E cycles with an optional linear
     * gradient (plane i's base spans pe_cycles * [1-skew, 1+skew]
     * across the flat plane order) plus the resident image's
     * retention age. Skew models a device whose planes did not wear
     * uniformly before this run — the starting point wear leveling
     * has to work against.
     */
    void seedWear(double pe_cycles, double pe_skew,
                  double retention_hours);

    /** Effective P/E cycles of one plane: seeded base plus programs
     *  performed this run, amortized over the plane's page count. */
    double planeWear(std::size_t idx) const;

    /** Retention age (hours) of the plane's resident data as seeded;
     *  refresh re-writes lower the *effective* age through
     *  planeFreshFraction() instead of rewinding this value. */
    double planeAge(std::size_t idx) const { return age_hours_[idx]; }

    /** Fraction of the plane's resident pages the scrubber has
     *  re-written this run, in [0, 1] (0 when nothing is resident). */
    double planeFreshFraction(std::size_t idx) const;

    /** Record @p n programs landing on plane @p idx. */
    void notePrograms(std::size_t idx, std::uint64_t n);

    /** Account one scrubbed page: plane @p src had a resident page
     *  re-read and re-written onto plane @p dst (where the program
     *  wear lands). */
    void noteRefresh(std::size_t src, std::size_t dst);

    /** Alive plane holding data with the lowest refreshed fraction —
     *  the scrubber's next target. Ties break on the lower index, so
     *  equal-age planes are swept in order. Returns planeCount() when
     *  no alive plane holds data. */
    std::size_t stalestPlane() const;

    /** Alive plane with the lowest effective wear (ties on the lower
     *  index). Returns planeCount() when every channel is dead. */
    std::size_t leastWornPlane() const;

    /** Programs performed this run, summed over every plane. */
    std::uint64_t totalPrograms() const;

    /** max - min effective P/E over alive planes (the wear-leveling
     *  figure of merit). */
    double wearSpreadPe() const;
    double wearMeanPe() const;
    double wearMaxPe() const;

  private:
    FlashGeometry geometry_;
    std::vector<std::uint32_t> next_page_; ///< resident pages per plane
    std::vector<bool> channel_dead_;
    std::uint64_t allocated_ = 0;
    std::uint64_t retired_pages_ = 0;
    std::uint32_t pages_per_plane_;
    std::size_t seed_cursor_ = 0; ///< next seedStriped remainder plane

    std::uint64_t kv_region_pages_ = 0; ///< reserved KV-swap quota
    std::uint64_t kv_live_pages_ = 0;   ///< swapped-out pages resident
    std::uint64_t kv_rr_cursor_ = 0;    ///< Bump-policy program cursor

    WearPolicy policy_ = WearPolicy::Bump;
    std::vector<std::uint64_t> programs_;  ///< programs this run
    std::vector<std::uint64_t> refreshed_; ///< pages scrubbed, per src
    std::vector<double> base_pe_;          ///< seeded lifetime wear
    std::vector<double> age_hours_;        ///< seeded retention age
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_PLACEMENT_H
