#include "placement.h"

#include <algorithm>

#include "common/logging.h"

namespace camllm::flash {

WeightPlacement::WeightPlacement(const FlashGeometry &g) : geometry_(g)
{
    CAMLLM_ASSERT(g.valid());
    pages_per_plane_ = g.blocks_per_plane * g.pages_per_block;
    const std::size_t n_planes = std::size_t(g.channels) *
                                 g.diesPerChannel() * g.planes_per_die;
    next_page_.assign(n_planes, 0);
    channel_dead_.assign(g.channels, false);
    programs_.assign(n_planes, 0);
    refreshed_.assign(n_planes, 0);
    base_pe_.assign(n_planes, 0.0);
    age_hours_.assign(n_planes, 0.0);
}

std::size_t
WeightPlacement::planeIndex(std::uint32_t channel,
                            std::uint32_t die_in_channel,
                            std::uint32_t plane) const
{
    return (std::size_t(channel) * geometry_.diesPerChannel() +
            die_in_channel) *
               geometry_.planes_per_die +
           plane;
}

std::uint32_t
WeightPlacement::planeChannel(std::size_t idx) const
{
    return std::uint32_t(idx / (std::size_t(geometry_.diesPerChannel()) *
                                geometry_.planes_per_die));
}

void
WeightPlacement::seedStriped(std::uint64_t pages)
{
    CAMLLM_ASSERT(allocated_ + pages <= capacityPages(),
                  "seeding %llu pages into %llu free",
                  (unsigned long long)pages,
                  (unsigned long long)(capacityPages() - allocated_));
    const std::size_t n_planes = next_page_.size();
    const std::uint64_t base = pages / n_planes;
    const std::size_t extra = std::size_t(pages % n_planes);
    for (std::size_t i = 0; i < n_planes; ++i) {
        // Plane i's offset past the cursor, cyclically: the first
        // `extra` planes from the cursor take one remainder page.
        const std::size_t from_cursor =
            (i + n_planes - seed_cursor_) % n_planes;
        const std::uint64_t give = base + (from_cursor < extra ? 1 : 0);
        CAMLLM_ASSERT(next_page_[i] + give <= pages_per_plane_,
                      "plane overflow while seeding");
        next_page_[i] += std::uint32_t(give);
        programs_[i] += give;
    }
    seed_cursor_ = (seed_cursor_ + extra) % n_planes;
    allocated_ += pages;
}

std::uint64_t
WeightPlacement::pagesOnChannel(std::uint32_t channel) const
{
    CAMLLM_ASSERT(channel < geometry_.channels);
    const std::size_t per_ch =
        std::size_t(geometry_.diesPerChannel()) * geometry_.planes_per_die;
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < per_ch; ++i)
        n += next_page_[std::size_t(channel) * per_ch + i];
    return n;
}

std::uint64_t
WeightPlacement::remapChannel(std::uint32_t channel)
{
    CAMLLM_ASSERT(channel < geometry_.channels);
    CAMLLM_ASSERT(!channel_dead_[channel],
                  "channel %u already retired", channel);

    const std::size_t per_ch =
        std::size_t(geometry_.diesPerChannel()) * geometry_.planes_per_die;
    std::uint64_t moved = 0;
    for (std::size_t i = 0; i < per_ch; ++i) {
        std::size_t idx = std::size_t(channel) * per_ch + i;
        moved += next_page_[idx];
        next_page_[idx] = 0;
    }
    channel_dead_[channel] = true;
    retired_pages_ += std::uint64_t(per_ch) * pages_per_plane_;

    // Count the surviving planes, then fill them as evenly as their
    // free space allows (even share first, spill passes after).
    // Under LeastWorn each pass visits the least-worn survivors
    // first, so the rebuild's program wear lands where the profile is
    // flattest instead of in index order.
    std::vector<std::size_t> survivors;
    for (std::uint32_t c = 0; c < geometry_.channels; ++c) {
        if (channel_dead_[c])
            continue;
        for (std::size_t i = 0; i < per_ch; ++i)
            survivors.push_back(std::size_t(c) * per_ch + i);
    }
    CAMLLM_ASSERT(!survivors.empty(), "last flash channel died");

    std::uint64_t left = moved;
    while (left > 0) {
        if (policy_ == WearPolicy::LeastWorn) {
            std::stable_sort(survivors.begin(), survivors.end(),
                             [this](std::size_t a, std::size_t b) {
                                 return planeWear(a) < planeWear(b);
                             });
        }
        std::uint64_t placed = 0;
        const std::uint64_t share =
            (left + survivors.size() - 1) / survivors.size();
        for (std::size_t idx : survivors) {
            if (left == 0)
                break;
            const std::uint64_t free = pages_per_plane_ - next_page_[idx];
            const std::uint64_t give = std::min({free, share, left});
            next_page_[idx] += std::uint32_t(give);
            programs_[idx] += give;
            left -= give;
            placed += give;
        }
        if (placed == 0)
            fatal("surviving channels cannot hold %llu remapped pages",
                  (unsigned long long)left);
    }
    return moved;
}

void
WeightPlacement::reserveKvRegion(std::uint64_t pages)
{
    CAMLLM_ASSERT(kv_region_pages_ == 0,
                  "KV-swap region reserved twice");
    CAMLLM_ASSERT(pages >= 1);
    if (pages > freePages())
        fatal("KV-swap region of %llu pages exceeds the %llu free "
              "flash pages",
              (unsigned long long)pages,
              (unsigned long long)freePages());
    kv_region_pages_ = pages;
}

bool
WeightPlacement::kvProgram(std::uint64_t pages)
{
    CAMLLM_ASSERT(kv_region_pages_ > 0, "no KV-swap region reserved");
    if (kv_live_pages_ + pages > kv_region_pages_)
        return false;
    kv_live_pages_ += pages;
    // Swapped KV is transient: it occupies quota, not the resident
    // weight map (next_page_), so remap/refresh never chase it. Its
    // program wear is real, though, and lands plane by plane under
    // the active policy.
    for (std::uint64_t p = 0; p < pages; ++p) {
        std::size_t dst = planeCount();
        if (policy_ == WearPolicy::LeastWorn) {
            dst = leastWornPlane();
        } else {
            const std::size_t n = planeCount();
            for (std::size_t probe = 0; probe < n; ++probe) {
                const std::size_t i = (kv_rr_cursor_ + probe) % n;
                if (!channel_dead_[planeChannel(i)]) {
                    dst = i;
                    kv_rr_cursor_ = i + 1;
                    break;
                }
            }
        }
        CAMLLM_ASSERT(dst != planeCount(),
                      "KV swap-out with every channel dead");
        ++programs_[dst];
    }
    return true;
}

void
WeightPlacement::kvFree(std::uint64_t pages)
{
    CAMLLM_ASSERT(pages <= kv_live_pages_,
                  "freeing %llu KV pages of %llu live",
                  (unsigned long long)pages,
                  (unsigned long long)kv_live_pages_);
    kv_live_pages_ -= pages;
}

double
WeightPlacement::occupancy() const
{
    const std::uint64_t cap = capacityPages();
    if (cap == 0)
        fatal("flash device has no live capacity "
              "(every channel is offline)");
    return double(allocated_) / double(cap);
}

std::uint64_t
WeightPlacement::freePages() const
{
    const std::uint64_t cap = capacityPages();
    if (cap == 0)
        fatal("flash device has no live capacity "
              "(every channel is offline)");
    return cap - allocated_;
}

void
WeightPlacement::seedWear(double pe_cycles, double pe_skew,
                          double retention_hours)
{
    CAMLLM_ASSERT(pe_cycles >= 0.0 && retention_hours >= 0.0);
    CAMLLM_ASSERT(pe_skew >= 0.0 && pe_skew <= 1.0,
                  "wear skew %.2f outside [0, 1]", pe_skew);
    const std::size_t n = base_pe_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double g =
            n > 1 ? 2.0 * double(i) / double(n - 1) - 1.0 : 0.0;
        base_pe_[i] = pe_cycles * (1.0 + pe_skew * g);
        age_hours_[i] = retention_hours;
    }
}

double
WeightPlacement::planeWear(std::size_t idx) const
{
    return base_pe_[idx] +
           double(programs_[idx]) / double(pages_per_plane_);
}

double
WeightPlacement::planeFreshFraction(std::size_t idx) const
{
    if (next_page_[idx] == 0)
        return 0.0;
    return std::min(1.0, double(refreshed_[idx]) /
                             double(next_page_[idx]));
}

void
WeightPlacement::notePrograms(std::size_t idx, std::uint64_t n)
{
    CAMLLM_ASSERT(idx < programs_.size());
    programs_[idx] += n;
}

void
WeightPlacement::noteRefresh(std::size_t src, std::size_t dst)
{
    CAMLLM_ASSERT(src < planeCount() && dst < planeCount());
    ++refreshed_[src];
    ++programs_[dst];
}

std::size_t
WeightPlacement::stalestPlane() const
{
    std::size_t best = planeCount();
    for (std::size_t i = 0; i < planeCount(); ++i) {
        if (channel_dead_[planeChannel(i)] || next_page_[i] == 0)
            continue;
        if (best == planeCount() ||
            planeFreshFraction(i) < planeFreshFraction(best))
            best = i;
    }
    return best;
}

std::size_t
WeightPlacement::leastWornPlane() const
{
    std::size_t best = planeCount();
    for (std::size_t i = 0; i < planeCount(); ++i) {
        if (channel_dead_[planeChannel(i)])
            continue;
        if (best == planeCount() || planeWear(i) < planeWear(best))
            best = i;
    }
    return best;
}

std::uint64_t
WeightPlacement::totalPrograms() const
{
    std::uint64_t n = 0;
    for (std::uint64_t p : programs_)
        n += p;
    return n;
}

double
WeightPlacement::wearSpreadPe() const
{
    double lo = 0.0, hi = 0.0;
    bool seen = false;
    for (std::size_t i = 0; i < planeCount(); ++i) {
        if (channel_dead_[planeChannel(i)])
            continue;
        const double w = planeWear(i);
        lo = seen ? std::min(lo, w) : w;
        hi = seen ? std::max(hi, w) : w;
        seen = true;
    }
    return seen ? hi - lo : 0.0;
}

double
WeightPlacement::wearMeanPe() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < planeCount(); ++i) {
        if (channel_dead_[planeChannel(i)])
            continue;
        sum += planeWear(i);
        ++n;
    }
    return n > 0 ? sum / double(n) : 0.0;
}

double
WeightPlacement::wearMaxPe() const
{
    double hi = 0.0;
    bool seen = false;
    for (std::size_t i = 0; i < planeCount(); ++i) {
        if (channel_dead_[planeChannel(i)])
            continue;
        const double w = planeWear(i);
        hi = seen ? std::max(hi, w) : w;
        seen = true;
    }
    return seen ? hi : 0.0;
}

} // namespace camllm::flash
