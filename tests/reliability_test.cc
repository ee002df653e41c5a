/**
 * @file
 * Reliability co-design tests: ECC codeword-tail math, per-plane wear
 * tracking and seeding, wear-aware placement policy, remap edge cases
 * (exactly-full survivors, cascaded channel loss, wear conservation),
 * the retention-refresh scrubber at serve() level and determinism of
 * the whole reliability stack under the sweep pool. Labeled
 * "robustness" in CMake (ctest -L robustness).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/area_model.h"
#include "core/presets.h"
#include "core/scheduler.h"
#include "core/sweep.h"
#include "common/rng.h"
#include "ecc/retention.h"
#include "flash/fault.h"
#include "flash/placement.h"
#include "llm/model_config.h"

namespace camllm {
namespace {

using core::SchedOptions;
using core::SchedPolicy;
using core::Scheduler;
using core::ServeRequest;
using core::ServeStats;
using flash::FaultModel;
using flash::FaultSpec;
using flash::FlashGeometry;
using flash::WearPolicy;
using flash::WeightPlacement;

// ---------------------------------------------------------------------------
// ECC codeword-tail math
// ---------------------------------------------------------------------------

TEST(EccCodeword, FailProbMatchesHandComputedBinomial)
{
    // 1-byte codeword (n = 8 bits), t = 1, ber = 0.1:
    // P(X > 1) = 1 - 0.9^8 - 8 * 0.1 * 0.9^7.
    const double expect =
        1.0 - std::pow(0.9, 8) - 8.0 * 0.1 * std::pow(0.9, 7);
    EXPECT_NEAR(ecc::codewordFailProb(0.1, 1, 1), expect, 1e-12);

    // t >= n can always correct; zero BER never fails.
    EXPECT_EQ(ecc::codewordFailProb(0.1, 8, 1), 0.0);
    EXPECT_EQ(ecc::codewordFailProb(0.0, 1, 1), 0.0);
}

TEST(EccCodeword, TailIsMonotoneInStrengthAndBer)
{
    // Ranges chosen so the tail stays representable: far beyond the
    // codeword's error mean the exact binomial tail underflows to 0
    // in double precision (correctly — those reads never retry).
    double prev = 1.0;
    for (std::uint32_t t = 8; t <= 32; t += 8) {
        const double p = ecc::codewordFailProb(2e-3, t, 1024);
        EXPECT_LT(p, prev) << "t=" << t;
        EXPECT_GT(p, 0.0) << "t=" << t;
        prev = p;
    }
    prev = 0.0;
    for (double ber = 1e-3; ber < 5e-3; ber *= 2) {
        const double p = ecc::codewordFailProb(ber, 16, 1024);
        EXPECT_GT(p, prev) << "ber=" << ber;
        prev = p;
    }
    // And the underflow end really is pinned at zero, not negative.
    EXPECT_EQ(ecc::codewordFailProb(1e-4, 64, 1024), 0.0);
}

TEST(EccCodeword, PageUcpAggregatesCodewords)
{
    // One codeword per page: page UCP is the codeword tail itself.
    const double cw = ecc::codewordFailProb(3e-3, 16, 1024);
    EXPECT_NEAR(ecc::pageUcp(3e-3, 16, 1024, 1024), cw, 1e-12);
    // Sixteen codewords per page: 1 - (1 - cw)^16, and necessarily
    // larger than any single codeword's failure probability.
    const double page = ecc::pageUcp(3e-3, 16, 1024, 16384);
    EXPECT_NEAR(page, 1.0 - std::pow(1.0 - cw, 16), 1e-12);
    EXPECT_GT(page, cw);
}

// ---------------------------------------------------------------------------
// FaultModel with the co-design knobs
// ---------------------------------------------------------------------------

TEST(ReliabilityFaultModel, EccStrengthDrivesUcpAndSenseTime)
{
    FaultSpec spec;
    spec.retention_hours = 500.0;
    spec.pe_cycles = 2000.0;
    spec.ecc_correctable_bits = 25;
    const FaultModel m(spec);
    EXPECT_TRUE(spec.any());

    // Stronger ECC at the same wear sees a strictly smaller UCP.
    FaultSpec strong = spec;
    strong.ecc_correctable_bits = 40;
    const FaultModel s(strong);
    EXPECT_GT(m.ucpAt(500.0, 2000.0), s.ucpAt(500.0, 2000.0));
    // More wear at the same strength sees a larger UCP.
    EXPECT_GT(m.ucpAt(500.0, 3500.0), m.ucpAt(500.0, 2000.0));

    // The soft-sense cost: every attempt pays 1 + bits * per_bit.
    EXPECT_DOUBLE_EQ(m.eccSenseScale(), 1.0 + 25 * 0.004);
    EXPECT_EQ(m.senseTime(0), Tick(double(30 * kUs) * (1.0 + 25 * 0.004)));
    // Without ECC, attempt 0 is the base tR bit-exactly.
    FaultSpec off;
    off.ucp_rate = 0.1;
    const FaultModel legacy(off);
    EXPECT_DOUBLE_EQ(legacy.eccSenseScale(), 1.0);
    EXPECT_EQ(legacy.senseTime(0), 30 * kUs);
}

TEST(ReliabilityFaultModel, PerPlaneDrawFallsBackToUniform)
{
    FaultSpec spec;
    spec.ucp_rate = 0.2;
    spec.seed = 5;
    FaultModel a(spec), b(spec);
    // Without a wear source the per-plane draw must replay the
    // uniform draw's random stream exactly, whichever plane it names.
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(a.drawRetries(),
                  b.drawRetriesForPlane(std::uint32_t(i % 4),
                                        std::uint32_t(i % 3),
                                        std::uint32_t(i % 2)))
            << "draw " << i;
    EXPECT_EQ(a.drawsTaken(), b.drawsTaken());
}

TEST(ReliabilityFaultModel, WornPlanesFailMoreThanFreshOnes)
{
    FlashGeometry g;
    WeightPlacement place(g);
    place.seedStriped(g.totalPages() / 4);
    place.seedWear(2000.0, 0.6, 500.0);

    FaultSpec spec;
    spec.retention_hours = 500.0;
    spec.pe_cycles = 2000.0;
    spec.wear_tracking = true;
    spec.ecc_correctable_bits = 16;
    spec.seed = 9;
    FaultModel m(spec, g.page_bytes);
    m.setWearSource(&place);
    // The same spec without a wear source draws at the uniform
    // spec-level wear, which lies inside the seeded gradient.
    FaultModel uniform(spec, g.page_bytes);

    // Draw many reads against the least- and most-worn planes: the
    // worn end of the gradient must retry more in aggregate, and the
    // attached wear source must move both ends off the uniform draw.
    std::uint64_t fresh = 0, worn = 0, flat = 0;
    const std::uint32_t last_die = g.diesPerChannel() - 1;
    for (int i = 0; i < 4000; ++i) {
        fresh += m.drawRetriesForPlane(0, 0, 0);
        worn += m.drawRetriesForPlane(g.channels - 1, last_die,
                                      g.planes_per_die - 1);
        flat += uniform.drawRetriesForPlane(0, 0, 0);
        flat += uniform.drawRetriesForPlane(g.channels - 1, last_die,
                                            g.planes_per_die - 1);
    }
    EXPECT_GT(worn, fresh);
    EXPECT_LT(2 * fresh, flat);
    EXPECT_GT(2 * worn, flat);
}

TEST(ReliabilityFaultModel, PerPlaneDrawsFollowWearStateChanges)
{
    FlashGeometry g;
    WeightPlacement place(g);
    place.seedStriped(g.totalPages() / 4);
    place.seedWear(2000.0, 0.6, 500.0);

    FaultSpec spec;
    spec.retention_hours = 500.0;
    spec.pe_cycles = 2000.0;
    spec.wear_tracking = true;
    spec.ecc_correctable_bits = 16;
    spec.seed = 9;
    FaultModel m(spec, g.page_bytes);
    m.setWearSource(&place);

    // Alternate draws on the least-worn plane (a) and the most-worn
    // one (b), one digit per draw.
    const std::uint32_t last_die = g.diesPerChannel() - 1;
    const std::size_t a = place.planeIndex(0, 0, 0);
    const std::size_t b = place.planeIndex(g.channels - 1, last_die, 1);
    auto draws = [&] {
        std::string out;
        for (int i = 0; i < 64; ++i) {
            out += char('0' + m.drawRetriesForPlane(0, 0, 0));
            out += char('0' + m.drawRetriesForPlane(g.channels - 1,
                                                    last_die, 1));
        }
        return out;
    };

    // Sequences recorded from the model that re-derived the odds on
    // every draw. A stale cached UCP after a program or a refresh
    // would change them.
    EXPECT_EQ(draws(), "0100010101000101010101010101010101010101010001"
                       "0101010200010001010101000101010101010101010101"
                       "010101010101010101010101010100010101");
    const std::uint64_t per_plane =
        std::uint64_t(g.blocks_per_plane) * g.pages_per_block;
    place.notePrograms(a, 3000 * per_plane); // wear on plane a
    EXPECT_EQ(draws(), "1111112101111111111121111110211111111111111121"
                       "1011111211111111111101111111112111211021111111"
                       "101111111111121111011110112111111111");
    for (int i = 0; i < 20000; ++i)
        place.noteRefresh(b, a); // fresh pages on b, wear on a
    EXPECT_EQ(draws(), "1121211121211111111111111010111110111110211111"
                       "1001211111012011201111102011002111111111111121"
                       "111110111121212110111110211121111121");
    EXPECT_EQ(m.drawsTaken(), 701u);
}

/**
 * The retry ladder with nothing memoized: every rung's failure odds
 * re-derived from the codeword tail (or the geometric decay) on the
 * spot, on an Rng seeded like the model's. The memoized FaultModel
 * must draw exactly what this draws.
 */
struct ReferenceLadder
{
    FaultSpec spec;
    std::uint32_t page_bytes;
    Rng rng;
    std::uint64_t draws = 0;

    double
    ucpAt(double age, double pe) const
    {
        const ecc::RetentionParams rp;
        const double ber = ecc::retentionBer(age, pe, rp);
        if (spec.ecc_correctable_bits > 0)
            return std::min(ecc::pageUcp(ber, spec.ecc_correctable_bits,
                                         FaultSpec::kEccCodewordBytes,
                                         page_bytes),
                            0.9);
        return std::min(spec.ucp_rate * (ber / rp.base_ber), 0.9);
    }

    std::uint32_t
    climb(double p, double ber)
    {
        if (p <= 0.0)
            return 0;
        std::uint32_t r = 0;
        while (r < flash::RetryLadder::kMaxRetries) {
            ++draws;
            if (!rng.chance(p))
                break;
            ++r;
            if (spec.ecc_correctable_bits > 0) {
                ber *= flash::RetryLadder::kRetryFailDecay;
                p = std::min(ecc::pageUcp(ber, spec.ecc_correctable_bits,
                                          FaultSpec::kEccCodewordBytes,
                                          page_bytes),
                             0.9);
            } else {
                p *= flash::RetryLadder::kRetryFailDecay;
            }
        }
        return r;
    }

    std::uint32_t
    uniform()
    {
        const double ucp0 =
            spec.ecc_correctable_bits > 0
                ? ucpAt(spec.retention_hours, spec.pe_cycles)
                : spec.effectiveUcpRate();
        return climb(ucp0, ecc::retentionBer(spec.retention_hours,
                                             spec.pe_cycles));
    }

    std::uint32_t
    plane(const WeightPlacement &place, std::size_t idx)
    {
        const double pe = place.planeWear(idx);
        const double age = place.planeAge(idx);
        const double frac = place.planeFreshFraction(idx);
        double ucp0 = ucpAt(age, pe);
        double ber0 = ecc::retentionBer(age, pe);
        if (frac > 0.0) {
            ucp0 = (1.0 - frac) * ucp0 + frac * ucpAt(0.0, pe);
            ber0 = (1.0 - frac) * ber0 + frac * ecc::retentionBer(0.0, pe);
        }
        return climb(ucp0, ber0);
    }
};

TEST(ReliabilityFaultModel, MemoizedLadderMatchesPerRungReference)
{
    FlashGeometry g;
    g.channels = 2;
    g.chips_per_channel = 2;
    g.dies_per_chip = 1;
    g.planes_per_die = 2;
    g.blocks_per_plane = 8;
    g.pages_per_block = 16;
    const std::uint64_t per_plane =
        std::uint64_t(g.blocks_per_plane) * g.pages_per_block;

    Rng pick(20241021);
    std::uint64_t deep_climbs = 0; // draws that passed rung 1
    for (const bool wear : {false, true}) {
        for (const std::uint32_t bits : {0u, 16u, 32u, 64u}) {
            for (int rep = 0; rep < 2; ++rep) {
                FaultSpec spec;
                spec.seed = pick.next();
                spec.retention_hours = 50.0 + 8000.0 * pick.uniform();
                spec.pe_cycles = 1000.0 + 7000.0 * pick.uniform();
                spec.ecc_correctable_bits = bits;
                spec.ucp_rate = bits > 0 ? 0.0 : 0.01 + 0.5 * pick.uniform();
                spec.wear_tracking = wear;
                SCOPED_TRACE(testing::Message()
                             << "wear " << wear << " ecc " << bits
                             << " rep " << rep << " seed " << spec.seed);

                WeightPlacement place(g);
                place.seedStriped(g.totalPages() / 4);
                place.seedWear(spec.pe_cycles, 0.6, spec.retention_hours);
                FaultModel m(spec, g.page_bytes);
                if (wear)
                    m.setWearSource(&place);
                ReferenceLadder ref{spec, g.page_bytes, Rng(spec.seed)};

                for (int batch = 0; batch < 4; ++batch) {
                    for (int i = 0; i < 400; ++i) {
                        const auto ch = std::uint32_t(pick.below(g.channels));
                        const auto die = std::uint32_t(
                            pick.below(g.diesPerChannel()));
                        const auto pl =
                            std::uint32_t(pick.below(g.planes_per_die));
                        const std::uint32_t want =
                            wear ? ref.plane(place,
                                             place.planeIndex(ch, die, pl))
                                 : ref.uniform();
                        const std::uint32_t got =
                            !wear && i % 2 == 0
                                ? m.drawRetries()
                                : m.drawRetriesForPlane(ch, die, pl);
                        ASSERT_EQ(got, want)
                            << "batch " << batch << " draw " << i;
                        deep_climbs += got > 1 ? 1 : 0;
                    }
                    // Change the wear state between batches: programs
                    // raise P/E, scrubs raise the refreshed fraction.
                    for (int k = 0; k < 4; ++k)
                        place.notePrograms(
                            pick.below(place.planeCount()),
                            per_plane * (1 + pick.below(800)));
                    for (int k = 0; k < 24; ++k)
                        place.noteRefresh(pick.below(place.planeCount()),
                                          pick.below(place.planeCount()));
                }
                EXPECT_EQ(m.drawsTaken(), ref.draws);
            }
        }
    }
    // The ladders were climbed, not just entered.
    EXPECT_GT(deep_climbs, 0u);
}

// ---------------------------------------------------------------------------
// Per-plane wear state and placement policy
// ---------------------------------------------------------------------------

TEST(WearState, SeedGradientSpansTheSkew)
{
    FlashGeometry g;
    WeightPlacement place(g);
    place.seedWear(2000.0, 0.5, 120.0);
    const std::size_t n = place.planeCount();
    EXPECT_DOUBLE_EQ(place.planeWear(0), 1000.0);
    EXPECT_DOUBLE_EQ(place.planeWear(n - 1), 3000.0);
    EXPECT_DOUBLE_EQ(place.wearSpreadPe(), 2000.0);
    EXPECT_DOUBLE_EQ(place.wearMaxPe(), 3000.0);
    EXPECT_NEAR(place.wearMeanPe(), 2000.0, 1e-9);
    EXPECT_DOUBLE_EQ(place.planeAge(0), 120.0);
}

TEST(WearState, ProgramsAddAmortizedWear)
{
    FlashGeometry g;
    WeightPlacement place(g);
    const std::uint64_t per_plane =
        std::uint64_t(g.blocks_per_plane) * g.pages_per_block;
    // One full plane's worth of programs is exactly one P/E cycle.
    place.notePrograms(0, per_plane);
    EXPECT_DOUBLE_EQ(place.planeWear(0), 1.0);
    EXPECT_DOUBLE_EQ(place.planeWear(1), 0.0);
    EXPECT_EQ(place.totalPrograms(), per_plane);
}

TEST(WearState, LeastWornPolicySteersKvPrograms)
{
    FlashGeometry g;
    const double one = 1.0 / (double(g.blocks_per_plane) *
                              g.pages_per_block); // one program's wear
    WeightPlacement seeded(g);
    seeded.seedWear(2000.0, 0.5, 0.0);

    WeightPlacement bump(g);
    bump.seedWear(2000.0, 0.5, 0.0);
    bump.reserveKvRegion(4);
    // Bump programs follow the round-robin cursor: plane 0, then 1.
    ASSERT_TRUE(bump.kvProgram(2));
    EXPECT_DOUBLE_EQ(bump.planeWear(0), seeded.planeWear(0) + one);
    EXPECT_DOUBLE_EQ(bump.planeWear(1), seeded.planeWear(1) + one);

    WeightPlacement lev(g);
    lev.seedWear(2000.0, 0.5, 0.0);
    lev.setWearPolicy(WearPolicy::LeastWorn);
    lev.reserveKvRegion(4);
    // Least-worn keeps landing on the bottom of the wear gradient.
    ASSERT_TRUE(lev.kvProgram(2));
    EXPECT_DOUBLE_EQ(lev.planeWear(0), 1000.0 + 2.0 * one);
    EXPECT_DOUBLE_EQ(lev.planeWear(1), seeded.planeWear(1));
    EXPECT_EQ(lev.totalPrograms(), 2u);
}

TEST(WearState, RefreshBookkeepingTracksFreshnessAndPrograms)
{
    FlashGeometry g;
    WeightPlacement place(g);
    place.seedStriped(place.planeCount() * 8); // 8 pages per plane
    // Everything equally stale: sweep order starts at plane 0.
    EXPECT_EQ(place.stalestPlane(), 0u);
    place.noteRefresh(0, 2);
    EXPECT_DOUBLE_EQ(place.planeFreshFraction(0), 1.0 / 8.0);
    EXPECT_EQ(place.stalestPlane(), 1u); // plane 0 is fresher now
    // The program wear landed on the destination, not the source.
    EXPECT_GT(place.planeWear(2), place.planeWear(0));
}

// ---------------------------------------------------------------------------
// Remap edge cases
// ---------------------------------------------------------------------------

FlashGeometry
tinyGeometry()
{
    FlashGeometry g;
    g.channels = 2;
    g.chips_per_channel = 1;
    g.dies_per_chip = 1;
    g.planes_per_die = 2;
    g.blocks_per_plane = 4;
    g.pages_per_block = 8;
    return g; // 2 channels x 2 planes x 32 pages = 128 pages
}

TEST(RemapEdge, SurvivorsExactlyFullSucceedsAtTheBoundary)
{
    const FlashGeometry g = tinyGeometry();
    WeightPlacement place(g);
    const std::uint64_t survivor_cap = g.totalPages() / 2;
    place.seedStriped(survivor_cap); // survivors can just barely hold
    const std::uint64_t moved = place.remapChannel(0);
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(place.pagesAllocated(), survivor_cap);
    EXPECT_EQ(place.freePages(), 0u);
    EXPECT_DOUBLE_EQ(place.occupancy(), 1.0);
    EXPECT_EQ(place.pagesOnChannel(1), survivor_cap);
}

TEST(RemapEdge, SurvivorsOverflowIsFatal)
{
    const FlashGeometry g = tinyGeometry();
    WeightPlacement place(g);
    place.seedStriped(g.totalPages() / 2 + 2); // one page too many on
                                               // each dead plane
    EXPECT_DEATH(place.remapChannel(0), "cannot hold");
}

TEST(RemapEdge, CascadedChannelLossConservesPagesAndWear)
{
    const FlashGeometry g; // full 8-channel device
    WeightPlacement place(g);
    const std::uint64_t pages = g.totalPages() / 4;
    place.seedStriped(pages);
    const std::uint64_t programs0 = place.totalPrograms();
    EXPECT_EQ(programs0, pages); // seeding programs every page once

    // First loss: every moved page programs a survivor.
    const std::uint64_t moved1 = place.remapChannel(0);
    EXPECT_EQ(place.totalPrograms(), programs0 + moved1);

    // Second loss onto the already-degraded device: channel 1 now
    // holds its own seed share plus remapped strands, all of which
    // must land on the remaining six channels.
    const std::uint64_t on_ch1 = place.pagesOnChannel(1);
    EXPECT_GT(on_ch1, pages / g.channels); // it absorbed remap spill
    const std::uint64_t moved2 = place.remapChannel(1);
    EXPECT_EQ(moved2, on_ch1);
    EXPECT_EQ(place.totalPrograms(), programs0 + moved1 + moved2);

    std::uint64_t resident = 0;
    for (std::uint32_t c = 0; c < g.channels; ++c)
        resident += place.pagesOnChannel(c);
    EXPECT_EQ(resident, pages);
    EXPECT_EQ(place.pagesOnChannel(0), 0u);
    EXPECT_EQ(place.pagesOnChannel(1), 0u);
    EXPECT_LE(place.pagesAllocated(), place.capacityPages());
}

TEST(RemapEdge, LastChannelDeathIsLoudNotSilent)
{
    const FlashGeometry g = tinyGeometry();
    WeightPlacement place(g);
    place.seedStriped(4);
    place.remapChannel(0);
    EXPECT_GT(place.capacityPages(), 0u);
    EXPECT_NO_FATAL_FAILURE(place.occupancy());
    // Killing the last channel has no survivors to remap onto — the
    // device dies loudly there, which is also what keeps occupancy()
    // and freePages() from ever dividing by a zero live capacity
    // (their own cap == 0 check is the defensive backstop).
    EXPECT_DEATH(place.remapChannel(1), "last flash channel died");
}

// ---------------------------------------------------------------------------
// serve() with the reliability stack armed
// ---------------------------------------------------------------------------

const std::vector<ServeRequest> &
smallTrace()
{
    static const std::vector<ServeRequest> reqs = {
        {128, 0, 2, 0}, {192, 0, 2, 0}};
    return reqs;
}

SchedOptions
chunkedOpts()
{
    SchedOptions opt;
    opt.max_batch = 2;
    opt.policy = SchedPolicy::ChunkedInterleave;
    opt.prefill_chunk = 64;
    return opt;
}

SchedOptions
agedOpts(WearPolicy policy, std::uint32_t ecc_bits, double refresh)
{
    SchedOptions opt = chunkedOpts();
    opt.faults.seed = 17;
    opt.faults.retention_hours = 500.0;
    opt.faults.pe_cycles = 2000.0;
    opt.faults.wear_tracking = true;
    opt.faults.wear_skew = 0.6;
    opt.faults.wear_policy = policy;
    opt.faults.ecc_correctable_bits = ecc_bits;
    opt.faults.refresh_pages_per_s = refresh;
    return opt;
}

TEST(ReliabilityServing, RefreshScrubsCompeteAndAccount)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const ServeStats clean = sched.serve(smallTrace(), chunkedOpts());

    SchedOptions opt = chunkedOpts();
    // One scrub per 500 us: thousands of scrubs over the run without
    // saturating dies the serving reads already keep busy.
    opt.faults.refresh_pages_per_s = 2000.0;
    const ServeStats st = sched.serve(smallTrace(), opt);

    const std::uint32_t page = core::presetS().flash.geometry.page_bytes;
    EXPECT_GT(st.refresh_pages, 0u);
    EXPECT_GE(st.refresh_channel_bytes, st.refresh_pages * page);
    // Scrub reads occupy dies and buses the serving reads wanted:
    // service can only get slower, and the run still terminates (the
    // scheduler stops the self-rescheduling scrubber at last exit).
    EXPECT_GE(st.sim_makespan, clean.sim_makespan);
    EXPECT_EQ(st.completed, 2u);

    // Deterministic: the same spec replays the same scrub schedule.
    const ServeStats again = sched.serve(smallTrace(), opt);
    EXPECT_EQ(again.refresh_pages, st.refresh_pages);
    EXPECT_EQ(again.refresh_channel_bytes, st.refresh_channel_bytes);
    EXPECT_EQ(again.sim_makespan, st.sim_makespan);
}

// Regression for the open-loop scrubber: a configured rate far above
// die service capacity (~33k pages/s/die at tR = 30 us) used to stack
// one scrub read per beat onto saturated channel queues without
// bound. The closed-loop beat must defer instead, completing scrubs
// at hardware pace while serving still finishes.
TEST(ReliabilityServing, OverCapacityRefreshSelfThrottles)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    SchedOptions opt = chunkedOpts();
    opt.faults.refresh_pages_per_s = 2.0e6; // ~60x one die's capacity
    const ServeStats st = sched.serve(smallTrace(), opt);

    EXPECT_EQ(st.completed, 2u);
    EXPECT_GT(st.refresh_pages, 0u);
    EXPECT_GT(st.refresh_deferred_beats, 0u);
    // Completed scrubs are bounded by service capacity, not by the
    // configured rate: the open-loop scrubber would have issued one
    // read per beat (2e6/s over the whole makespan).
    const double beats_configured =
        double(st.sim_makespan) / double(kSec) * 2.0e6;
    EXPECT_LT(double(st.refresh_pages), beats_configured / 10.0);

    // Deterministic: the same spec replays the same throttling.
    const ServeStats again = sched.serve(smallTrace(), opt);
    EXPECT_EQ(again.refresh_pages, st.refresh_pages);
    EXPECT_EQ(again.refresh_deferred_beats, st.refresh_deferred_beats);
    EXPECT_EQ(again.sim_makespan, st.sim_makespan);
}

TEST(ReliabilityServing, WearLevelingShrinksTheSpreadUnderRefresh)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const ServeStats bump =
        sched.serve(smallTrace(),
                    agedOpts(WearPolicy::Bump, 32, 2000.0));
    const ServeStats lev =
        sched.serve(smallTrace(),
                    agedOpts(WearPolicy::LeastWorn, 32, 2000.0));
    EXPECT_GT(bump.refresh_pages, 0u);
    EXPECT_GT(lev.refresh_pages, 0u);
    // Same seeded gradient; only the least-worn policy concentrates
    // refresh programs on the freshest plane and lifts the minimum.
    EXPECT_GT(bump.wear_spread_pe, 0.0);
    EXPECT_LT(lev.wear_spread_pe, bump.wear_spread_pe);
    EXPECT_EQ(bump.completed, 2u);
    EXPECT_EQ(lev.completed, 2u);
}

TEST(ReliabilityServing, StrongerEccCollapsesRetries)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const ServeStats weak = sched.serve(
        smallTrace(), agedOpts(WearPolicy::Bump, 16, 0.0));
    const ServeStats strong = sched.serve(
        smallTrace(), agedOpts(WearPolicy::Bump, 48, 0.0));
    EXPECT_GT(weak.read_retries, 0u);
    EXPECT_LT(strong.read_retries, weak.read_retries);
    // The decoder silicon that buys: linear in correction strength.
    EXPECT_GT(core::eccDecoderAreaUm2(48), core::eccDecoderAreaUm2(16));
}

TEST(ReliabilityServing, InertKnobsKeepTheLegacyTimeline)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    SchedOptions legacy = chunkedOpts();
    legacy.faults.ucp_rate = 0.05;
    legacy.faults.seed = 7;
    const ServeStats a = sched.serve(smallTrace(), legacy);

    // A passive knob value (wear skew) must be inert while wear
    // tracking, ECC strength and refresh stay off — the gating is what
    // keeps the legacy fault timelines byte-stable.
    SchedOptions knobs = legacy;
    knobs.faults.wear_skew = 0.6;
    const ServeStats b = sched.serve(smallTrace(), knobs);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    EXPECT_EQ(a.sim_makespan, b.sim_makespan);
    EXPECT_EQ(a.read_retries, b.read_retries);
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].finish_tick, b.requests[i].finish_tick);
        EXPECT_EQ(a.requests[i].total_token_time,
                  b.requests[i].total_token_time);
    }
    // And nothing reliability-flavored leaked into the stats.
    EXPECT_EQ(a.refresh_pages, 0u);
    EXPECT_EQ(a.wear_spread_pe, 0.0);
}

// The entire reliability stack — per-plane wear, ECC tails, refresh —
// must be a pure function of the spec regardless of how many sweep
// workers run serve() concurrently.
TEST(ReliabilityServing, SweepThreadCountDoesNotChangeTimelines)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const std::uint32_t bits[3] = {16, 32, 48};
    const auto point = [&](std::size_t i) {
        const ServeStats st = sched.serve(
            smallTrace(),
            agedOpts(i % 2 == 0 ? WearPolicy::Bump
                                : WearPolicy::LeastWorn,
                     bits[i], 1000.0));
        return std::tuple<Tick, std::uint64_t, std::uint64_t, double>(
            st.sim_makespan, st.read_retries, st.refresh_pages,
            st.wear_spread_pe);
    };
    using Point = std::tuple<Tick, std::uint64_t, std::uint64_t, double>;
    const auto seq = core::ParallelSweep(1).map<Point>(3, point);
    const auto par = core::ParallelSweep(4).map<Point>(3, point);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i], par[i]) << "point " << i;
    EXPECT_GT(std::get<2>(seq[0]), 0u); // refresh ran at every point
}

// ---------------------------------------------------------------------------
// ECC decoder area model
// ---------------------------------------------------------------------------

TEST(EccArea, DecoderScalesLinearlyFromTheCalibratedBaseline)
{
    const core::AreaModelParams p;
    EXPECT_DOUBLE_EQ(core::eccDecoderAreaUm2(p.ecu_baseline_bits, p),
                     p.ecu_um2);
    EXPECT_DOUBLE_EQ(core::eccDecoderAreaUm2(2 * p.ecu_baseline_bits, p),
                     2.0 * p.ecu_um2);
    EXPECT_DOUBLE_EQ(core::eccDecoderPowerUw(p.ecu_baseline_bits, p),
                     p.ecu_uw);
    // Table IV itself is untouched by the co-design knob.
    const core::AreaReport r = core::computeCoreArea(p);
    EXPECT_DOUBLE_EQ(r.ecu_um2, p.ecu_um2);
}

} // namespace
} // namespace camllm
