/**
 * @file
 * Unit tests for the flash substrate: geometry/addressing, the
 * priority channel bus, die pipelines (read and read-compute), the
 * per-channel scheduler, and weight placement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "flash/channel_engine.h"
#include "flash/flash_system.h"
#include "flash/placement.h"
#include "sim/event_queue.h"

namespace camllm::flash {
namespace {

/** Small, fast parameters for exact-timing tests. */
FlashParams
testParams()
{
    FlashParams p;
    p.geometry.channels = 1;
    p.geometry.chips_per_channel = 1;
    p.geometry.dies_per_chip = 1;
    p.geometry.planes_per_die = 2;
    p.geometry.blocks_per_plane = 8;
    p.geometry.pages_per_block = 16;
    p.geometry.page_bytes = 1024;
    p.timing.t_read = 1000;
    p.timing.bus_mts = 1000; // 1 B/ns
    p.timing.bus_bits = 8;
    p.timing.grant_overhead = 10;
    p.timing.t_reg_move = 50;
    p.timing.slice_bytes = 256;
    return p;
}

/**
 * One connected flash client: records tagged completions. Pass the
 * router of the channel under test (or FlashSystem::connect below).
 */
struct TestClient
{
    EventQueue *eq = nullptr;
    ClientId id = 0;
    std::map<std::uint64_t, std::uint64_t> rc_results;
    std::map<std::uint64_t, std::uint64_t> read_bytes;
    std::vector<Tick> rc_times;
    std::vector<Tick> read_times;

    void
    on(const Completion &c)
    {
        EXPECT_EQ(c.client, id);
        if (c.kind == Completion::Kind::RcResult) {
            ++rc_results[c.op_id];
            if (eq)
                rc_times.push_back(eq->now());
        } else {
            read_bytes[c.op_id] += c.bytes;
            if (eq)
                read_times.push_back(eq->now());
        }
    }

    void
    attach(CompletionRouter &router)
    {
        id = router.connect([this](const Completion &c) { on(c); });
    }

    void
    attach(FlashSystem &fs)
    {
        id = fs.connect([this](const Completion &c) { on(c); });
    }
};

/** A read-page job tagged for @p cl. */
ReadPageJob
readJob(const TestClient &cl, std::uint64_t op, std::uint32_t bytes,
        bool sliced)
{
    ReadPageJob j;
    j.client = cl.id;
    j.op_id = op;
    j.bytes = bytes;
    j.sliced = sliced;
    return j;
}

// --- geometry -------------------------------------------------------------

TEST(FlashGeometry, DerivedCounts)
{
    FlashGeometry g;
    g.channels = 8;
    g.chips_per_channel = 2;
    g.dies_per_chip = 2;
    g.planes_per_die = 2;
    EXPECT_EQ(g.diesPerChannel(), 4u);
    EXPECT_EQ(g.coresPerChannel(), 4u);
    EXPECT_EQ(g.totalDies(), 32u);
}

TEST(FlashGeometry, CapacityMath)
{
    FlashGeometry g = testParams().geometry;
    EXPECT_EQ(g.planeBytes(), 8u * 16 * 1024);
    EXPECT_EQ(g.dieBytes(), 2u * 8 * 16 * 1024);
    EXPECT_EQ(g.totalPages(), 2u * 8 * 16);
}

TEST(FlashGeometry, TableIIPresetCapacityHoldsA70BModel)
{
    FlashGeometry g; // defaults: 2048 blocks x 256 pages x 16 KB
    g.channels = 8;
    g.chips_per_channel = 2;
    // >= 80 GB for INT8 Llama2-70B.
    EXPECT_GT(g.totalBytes(), 80ull * 1000 * 1000 * 1000);
}

TEST(FlashGeometry, InvalidWhenZeroField)
{
    FlashGeometry g;
    g.channels = 0;
    EXPECT_FALSE(g.valid());
}

TEST(FlashTiming, BusBytesPerNs)
{
    FlashTiming t;
    t.bus_mts = 1000;
    t.bus_bits = 8;
    EXPECT_DOUBLE_EQ(t.busBytesPerNs(), 1.0);
    t.bus_mts = 2000;
    EXPECT_DOUBLE_EQ(t.busBytesPerNs(), 2.0);
}

TEST(FlashTiming, MatchedComputeEqualsReadTime)
{
    FlashTiming t;
    t.t_read = 30000;
    t.core_gops = 0.0; // matched design point
    EXPECT_EQ(t.computeTime(16384, 16384), 30000u);
    EXPECT_EQ(t.computeTime(8192, 16384), 15000u);
}

TEST(FlashTiming, ExplicitGopsCompute)
{
    FlashTiming t;
    t.core_gops = 4.0; // 4 ops per ns
    EXPECT_EQ(t.computeTime(16384, 16384), Tick(2 * 16384 / 4));
}

// --- channel bus ------------------------------------------------------------

TEST(ChannelBus, SingleGrantTiming)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 10);
    Tick done = 0;
    bus.request(BusPriority::Low, 100, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 110u); // overhead + bytes
    EXPECT_EQ(bus.bytesLow(), 100u);
    EXPECT_EQ(bus.grants(), 1u);
}

TEST(ChannelBus, HighPreemptsQueuedLow)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    std::vector<int> order;
    bus.request(BusPriority::Low, 100, [&] { order.push_back(0); });
    bus.request(BusPriority::Low, 100, [&] { order.push_back(1); });
    bus.request(BusPriority::High, 10, [&] { order.push_back(2); });
    eq.run();
    // The first low grant was already in flight; the high one jumps
    // the remaining queue.
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(ChannelBus, NonPreemptiveWithinGrant)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    Tick high_done = 0;
    bus.request(BusPriority::Low, 1000, [] {});
    bus.request(BusPriority::High, 10, [&] { high_done = eq.now(); });
    eq.run();
    // High must wait for the full 1000-byte low grant.
    EXPECT_EQ(high_done, 1010u);
}

TEST(ChannelBus, TracksBusyTime)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 10);
    bus.request(BusPriority::Low, 90, [] {});
    bus.request(BusPriority::High, 40, [] {});
    eq.run();
    EXPECT_EQ(bus.busy().busyTicks(), 100u + 50u);
}

TEST(ChannelBus, TraceHookSeesGrants)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    std::vector<ChannelBus::GrantTrace> traces;
    bus.setTraceHook([&](const ChannelBus::GrantTrace &g) {
        traces.push_back(g);
    });
    bus.request(BusPriority::High, 8, [] {}, "input");
    bus.request(BusPriority::Low, 16, [] {}, "slice");
    eq.run();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].bytes, 8u);
    EXPECT_EQ(traces[0].priority, BusPriority::High);
    EXPECT_STREQ(traces[1].label, "slice");
}

/** Completion time of a High request issued at t=300, while a sliced
 *  1024-byte page (four 256-byte slices) holds the bus from t=0. */
struct MidPageHigh
{
    Tick high_done = 0;
    Tick page_done = 0;
    int page_completions = 0;
    std::uint64_t grants = 0;
};

MidPageHigh
highDuringSlicedPage(bool slice_control)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0, slice_control);
    MidPageHigh r;
    bus.request(BusPriority::Low, 1024,
                [&] {
                    r.page_done = eq.now();
                    ++r.page_completions;
                },
                "page", 256);
    eq.schedule(300, [&] {
        bus.request(BusPriority::High, 10, [&] { r.high_done = eq.now(); });
    });
    eq.run();
    r.grants = bus.grants();
    EXPECT_EQ(bus.bytesLow(), 1024u);
    return r;
}

TEST(ChannelBus, SliceControlGrantsHighAtNextSliceBoundary)
{
    const MidPageHigh r = highDuringSlicedPage(true);
    // Slice 1 runs [256, 512); the High request cuts in at 512.
    EXPECT_EQ(r.high_done, 522u);
    EXPECT_EQ(r.page_done, 1034u);
    EXPECT_EQ(r.page_completions, 1);
    EXPECT_EQ(r.grants, 5u); // four slices + the High grant
}

TEST(ChannelBus, FifoBusMakesHighWaitForTheWholePage)
{
    const MidPageHigh r = highDuringSlicedPage(false);
    // The page's later slices were queued before the High request.
    EXPECT_EQ(r.page_done, 1024u);
    EXPECT_EQ(r.high_done, 1034u);
    EXPECT_EQ(r.page_completions, 1);
    EXPECT_EQ(r.grants, 5u);
}

// --- die + channel engine ---------------------------------------------------

TEST(ChannelEngine, ReadJobExactTiming)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    ce.submitRead(readJob(cl, 7, 1024, true));
    eq.run();
    // tR + reg move + 4 slices of (10 + 256).
    EXPECT_EQ(cl.read_times.at(0), 1000u + 50 + 4 * 266);
    EXPECT_EQ(cl.read_bytes[7], 1024u);
    EXPECT_EQ(ce.pagesRead(), 1u);
}

TEST(ChannelEngine, UnslicedReadIsOneGrant)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    ce.submitRead(readJob(cl, 7, 1024, false));
    eq.run();
    EXPECT_EQ(cl.read_times.at(0), 1000u + 50 + 10 + 1024);
    EXPECT_EQ(ce.bus().grants(), 1u);
}

TEST(ChannelEngine, PartialPageReadFewerSlices)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    ce.submitRead(readJob(cl, 1, 300, true));
    eq.run();
    // ceil(300/256) = 2 slices.
    EXPECT_EQ(ce.bus().grants(), 2u);
    EXPECT_EQ(cl.read_bytes[1], 300u);
}

TEST(ChannelEngine, RcTileExactTiming)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.op_id = 3;
    tile.cores_used = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    ce.submitTile(tile);
    eq.run();
    // input grant [0,74]; array read [74,1074] (step 1 precedes
    // step 2); move [1074,1124]; compute [1124,1624]; result grant
    // [1624,1666].
    EXPECT_EQ(cl.rc_times.at(0), 1666u);
    EXPECT_EQ(cl.rc_results[3], 1u);
    EXPECT_EQ(ce.pagesComputed(), 1u);
}

TEST(ChannelEngine, RcSteadyStateCadenceReadBound)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500; // < tR: cadence = t_reg_move + tR
    for (int i = 0; i < 4; ++i)
        ce.submitTile(tile);
    eq.run();
    ASSERT_EQ(cl.rc_times.size(), 4u);
    for (std::size_t i = 1; i < cl.rc_times.size(); ++i)
        EXPECT_EQ(cl.rc_times[i] - cl.rc_times[i - 1], 1050u);
}

TEST(ChannelEngine, RcSteadyStateCadenceComputeBound)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 2000; // > tR: core limits
    for (int i = 0; i < 4; ++i)
        ce.submitTile(tile);
    eq.run();
    ASSERT_EQ(cl.rc_times.size(), 4u);
    for (std::size_t i = 1; i < cl.rc_times.size(); ++i)
        EXPECT_EQ(cl.rc_times[i] - cl.rc_times[i - 1], 2050u);
}

TEST(ChannelEngine, TileFansOutToAllCores)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;
    p.geometry.dies_per_chip = 2; // 4 cores on the channel
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 9;
    tile.cores_used = 4;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 16;
    tile.compute_time = 500;
    ce.submitTile(tile);
    eq.run();
    EXPECT_EQ(cl.rc_results[9], 4u);
    EXPECT_EQ(ce.pagesComputed(), 4u);
    // One broadcast input grant + 4 result grants.
    EXPECT_EQ(ce.bus().grants(), 5u);
}

TEST(ChannelEngine, PartialTileUsesSubsetOfCores)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 4; // 4 dies
    ChannelEngine ce(eq, p, router);
    RcTileWork tile;
    tile.op_id = 2;
    tile.cores_used = 3;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    ce.submitTile(tile);
    eq.run();
    EXPECT_EQ(cl.rc_results[2], 3u);
    EXPECT_EQ(ce.die(3).pagesComputed(), 0u);
}

TEST(ChannelEngine, ReadsSpreadRoundRobinAcrossDies)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;
    p.geometry.dies_per_chip = 2;
    ChannelEngine ce(eq, p, router);
    for (int i = 0; i < 8; ++i)
        ce.submitRead(readJob(cl, 1, p.geometry.page_bytes, true));
    eq.run();
    for (std::size_t d = 0; d < ce.dieCount(); ++d)
        EXPECT_EQ(ce.die(d).pagesRead(), 2u);
}

TEST(ChannelEngine, QueuedReadsLandOnTheCursorDieAndTheNext)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;
    p.geometry.dies_per_chip = 2;
    ChannelEngine ce(eq, p, router);
    // One read moves the round-robin cursor to die 1.
    ce.submitRead(readJob(cl, 0, p.geometry.page_bytes, true));
    eq.run();
    // Four reads fill the read planes of dies 1, 2, 3 and 0; two more
    // queue behind them.
    const Tick t0 = eq.now();
    for (std::uint64_t op = 1; op <= 6; ++op)
        ce.submitRead(readJob(cl, op, p.geometry.page_bytes, true));
    EXPECT_EQ(ce.readBacklog(), 2u);
    // Every plane frees at one tick, when its page moves to the cache
    // register: the queued jobs go to the cursor die and the one after.
    eq.runUntil(t0 + p.timing.t_read + p.timing.t_reg_move);
    EXPECT_EQ(ce.readBacklog(), 0u);
    EXPECT_FALSE(ce.die(1).canAcceptRead());
    EXPECT_FALSE(ce.die(2).canAcceptRead());
    EXPECT_TRUE(ce.die(3).canAcceptRead());
    EXPECT_TRUE(ce.die(0).canAcceptRead());
    eq.run();
    EXPECT_EQ(cl.read_bytes.size(), 7u);
    EXPECT_EQ(ce.die(3).pagesRead(), 1u);
}

TEST(ChannelEngine, InterleavesTwoClientsWithTaggedCompletions)
{
    // Two decode streams share the one channel; each must see exactly
    // its own completions, tagged with its own op ids.
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient a, b;
    a.attach(router);
    b.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    RcTileWork tile;
    tile.cores_used = 1;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    for (int i = 0; i < 3; ++i) {
        tile.client = a.id;
        tile.op_id = 10 + i;
        ce.submitTile(tile);
        tile.client = b.id;
        tile.op_id = 20 + i;
        ce.submitTile(tile);
        ce.submitRead(readJob(b, 33, 512, true));
    }
    eq.run();
    EXPECT_EQ(a.rc_results.size(), 3u);
    EXPECT_EQ(b.rc_results.size(), 3u);
    EXPECT_EQ(a.read_bytes.size(), 0u);
    EXPECT_EQ(b.read_bytes[33], 3u * 512);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(a.rc_results[10 + i], 1u);
        EXPECT_EQ(b.rc_results[20 + i], 1u);
    }
}

TEST(ChannelEngine, ReadsDoNotStallRcStream)
{
    // The paper's key scheduling property: sliced reads fill channel
    // bubbles without delaying read-compute completions.
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2; // 2 dies

    auto run_rc = [&](bool with_reads) {
        EventQueue eq;
        CompletionRouter router(eq);
        TestClient cl;
        cl.eq = &eq;
        cl.attach(router);
        ChannelEngine ce(eq, p, router);
        RcTileWork tile;
        tile.op_id = 1;
        tile.cores_used = 2;
        tile.input_bytes = 64;
        tile.out_bytes_per_core = 32;
        tile.compute_time = 900;
        for (int i = 0; i < 10; ++i)
            ce.submitTile(tile);
        if (with_reads)
            for (int i = 0; i < 40; ++i)
                ce.submitRead(readJob(cl, 2, p.geometry.page_bytes,
                                      true));
        eq.run();
        return cl.rc_times.back();
    };

    const Tick alone = run_rc(false);
    const Tick with_reads = run_rc(true);
    // Sliced reads may add at most a slice-grant's worth of delay per
    // tile, a few percent here.
    EXPECT_LT(double(with_reads), double(alone) * 1.10);
}

TEST(ChannelEngine, UnslicedReadsDoStallRcStream)
{
    // Without Slice Control the channel loses both the slicing and
    // the priority arbitration (a conventional FIFO flash channel):
    // monolithic page transfers land ahead of rc inputs and block
    // them, stretching the read-compute stream (paper Fig 6b vs 6c).
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;

    auto run_rc = [&](bool slice_control) {
        EventQueue eq;
        CompletionRouter router(eq);
        TestClient cl;
        cl.eq = &eq;
        cl.attach(router);
        ChannelEngine ce(eq, p, router, 3, slice_control);
        RcTileWork tile;
        tile.op_id = 1;
        tile.cores_used = 2;
        tile.input_bytes = 64;
        tile.out_bytes_per_core = 32;
        tile.compute_time = 900;
        for (int i = 0; i < 10; ++i)
            ce.submitTile(tile);
        for (int i = 0; i < 40; ++i)
            ce.submitRead(readJob(cl, 2, p.geometry.page_bytes,
                                  slice_control));
        eq.run();
        return cl.rc_times.back();
    };

    const Tick with_slice = run_rc(true);
    const Tick without = run_rc(false);
    EXPECT_GT(double(without), double(with_slice) * 1.2);
}

TEST(ChannelEngine, TileWindowBoundsInFlightTiles)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router, 2);
    RcTileWork tile;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    for (int i = 0; i < 6; ++i)
        ce.submitTile(tile);
    EXPECT_EQ(ce.tilesInFlight(), 6u);
    eq.run();
    EXPECT_EQ(ce.tilesInFlight(), 0u);
    EXPECT_EQ(cl.rc_results[1], 6u);
}

/** One bus grant as the trace hook reports it. */
struct GoldenGrant
{
    Tick start;
    Tick end;
    BusPriority priority;
    std::uint64_t bytes;
    const char *label;
};

/**
 * A mixed workload on one channel with two dies: four full sliced
 * reads, a partial sliced read and an unsliced read at t=0, two rc
 * tiles on both cores at t=1400, and a third tile plus another sliced
 * read at t=2600. With @p faults the soft-failure ladder adds retry
 * drains. Returns the channel's grant trace; completion times go to
 * @p done.
 */
std::vector<ChannelBus::GrantTrace>
mixedChannelTrace(bool faults, std::vector<Tick> &done)
{
    FlashParams p = testParams();
    p.geometry.chips_per_channel = 2;
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, p, router);
    FaultSpec spec;
    spec.ucp_rate = 0.3;
    spec.seed = 11;
    FaultModel fm(spec, p.geometry.page_bytes, p.timing.t_read);
    if (faults)
        ce.setFaultModel(&fm);
    std::vector<ChannelBus::GrantTrace> trace;
    ce.bus().setTraceHook(
        [&](const ChannelBus::GrantTrace &g) { trace.push_back(g); });

    RcTileWork tile;
    tile.client = cl.id;
    tile.cores_used = 2;
    tile.input_bytes = 64;
    tile.out_bytes_per_core = 32;
    tile.compute_time = 500;
    auto submitTile = [&](std::uint64_t op) {
        tile.op_id = op;
        ce.submitTile(tile);
    };
    for (std::uint64_t op = 0; op < 4; ++op)
        ce.submitRead(readJob(cl, op, 1024, true));
    ce.submitRead(readJob(cl, 4, 700, true));
    ce.submitRead(readJob(cl, 5, 1024, false));
    eq.schedule(1400, [&] {
        submitTile(10);
        submitTile(11);
    });
    eq.schedule(2600, [&] {
        submitTile(12);
        ce.submitRead(readJob(cl, 6, 1024, true));
    });
    eq.run();

    done = cl.rc_times;
    done.insert(done.end(), cl.read_times.begin(), cl.read_times.end());
    std::sort(done.begin(), done.end());
    return trace;
}

void
expectTrace(const std::vector<ChannelBus::GrantTrace> &trace,
            const GoldenGrant *golden, std::size_t n)
{
    ASSERT_EQ(trace.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(trace[i].start, golden[i].start) << "grant " << i;
        EXPECT_EQ(trace[i].end, golden[i].end) << "grant " << i;
        EXPECT_EQ(trace[i].priority, golden[i].priority) << "grant " << i;
        EXPECT_EQ(trace[i].bytes, golden[i].bytes) << "grant " << i;
        EXPECT_STREQ(trace[i].label, golden[i].label) << "grant " << i;
    }
}

constexpr BusPriority H = BusPriority::High;
constexpr BusPriority L = BusPriority::Low;

// Golden traces recorded from the model that issued one bus request
// per slice; the per-page transaction must reproduce them grant for
// grant.
const GoldenGrant kCleanGrants[] = {
    {1050, 1316, L, 256, "read-slice"},
    {1316, 1582, L, 256, "read-slice"},
    {1582, 1656, H, 64, "rc-input"},
    {1656, 1730, H, 64, "rc-input"},
    {1730, 1996, L, 256, "read-slice"},
    {1996, 2262, L, 256, "read-slice"},
    {2262, 2528, L, 256, "read-slice"},
    {2528, 2794, L, 256, "read-slice"},
    {2794, 2868, H, 64, "rc-input"},
    {2868, 3134, L, 256, "read-slice"},
    {3134, 3400, L, 256, "read-slice"},
    {3400, 3442, H, 32, "rc-result"},
    {3442, 3484, H, 32, "rc-result"},
    {3484, 3750, L, 256, "read-slice"},
    {3750, 4016, L, 256, "read-slice"},
    {4016, 4282, L, 256, "read-slice"},
    {4282, 4324, H, 32, "rc-result"},
    {4324, 4366, H, 32, "rc-result"},
    {4366, 4632, L, 256, "read-slice"},
    {4632, 4898, L, 256, "read-slice"},
    {4898, 5164, L, 256, "read-slice"},
    {5164, 5430, L, 256, "read-slice"},
    {5430, 5472, H, 32, "rc-result"},
    {5472, 5514, H, 32, "rc-result"},
    {5514, 5780, L, 256, "read-slice"},
    {5780, 6046, L, 256, "read-slice"},
    {6046, 6312, L, 256, "read-slice"},
    {6312, 6510, L, 188, "read-slice"},
    {6510, 7544, L, 1024, "read-slice"},
    {7544, 7810, L, 256, "read-slice"},
    {7810, 8076, L, 256, "read-slice"},
    {8076, 8342, L, 256, "read-slice"},
    {8342, 8608, L, 256, "read-slice"},
};

const GoldenGrant kRetryGrants[] = {
    {1050, 1316, L, 256, "retry-slice"},
    {1316, 1582, L, 256, "retry-slice"},
    {1582, 1656, H, 64, "rc-input"},
    {1656, 1730, H, 64, "rc-input"},
    {1730, 1996, L, 256, "retry-slice"},
    {1996, 2262, L, 256, "retry-slice"},
    {2262, 2528, L, 256, "retry-slice"},
    {2528, 2794, L, 256, "retry-slice"},
    {2794, 2868, H, 64, "rc-input"},
    {2868, 3134, L, 256, "retry-slice"},
    {3134, 3400, L, 256, "retry-slice"},
    {3400, 3442, H, 32, "rc-result"},
    {3812, 4078, L, 256, "read-slice"},
    {4078, 4344, L, 256, "read-slice"},
    {4344, 4386, H, 32, "rc-result"},
    {4386, 4652, L, 256, "read-slice"},
    {4652, 4918, L, 256, "read-slice"},
    {4918, 4960, H, 32, "rc-result"},
    {4960, 5226, L, 256, "retry-slice"},
    {5226, 5492, L, 256, "retry-slice"},
    {5492, 5534, H, 32, "rc-result"},
    {5534, 5800, L, 256, "retry-slice"},
    {5800, 5842, H, 32, "rc-result"},
    {5842, 6108, L, 256, "retry-slice"},
    {6108, 6374, L, 256, "read-slice"},
    {6374, 6640, L, 256, "read-slice"},
    {6640, 6906, L, 256, "read-slice"},
    {6906, 6948, H, 32, "rc-result"},
    {6948, 7214, L, 256, "read-slice"},
    {7214, 7480, L, 256, "retry-slice"},
    {7480, 7746, L, 256, "retry-slice"},
    {7746, 8012, L, 256, "retry-slice"},
    {8012, 8278, L, 256, "retry-slice"},
    {8278, 8544, L, 256, "retry-slice"},
    {8544, 8810, L, 256, "retry-slice"},
    {8810, 9076, L, 256, "retry-slice"},
    {9076, 9342, L, 256, "retry-slice"},
    {9828, 10094, L, 256, "read-slice"},
    {10094, 10360, L, 256, "read-slice"},
    {10360, 10626, L, 256, "read-slice"},
    {10626, 10892, L, 256, "read-slice"},
    {10892, 11158, L, 256, "retry-slice"},
    {11158, 11424, L, 256, "retry-slice"},
    {11424, 11622, L, 188, "retry-slice"},
    {11642, 11908, L, 256, "read-slice"},
    {11908, 12174, L, 256, "read-slice"},
    {12174, 12440, L, 256, "read-slice"},
    {12440, 12706, L, 256, "read-slice"},
    {12706, 13740, L, 1024, "retry-slice"},
    {13740, 14006, L, 256, "read-slice"},
    {14006, 14272, L, 256, "read-slice"},
    {14272, 14470, L, 188, "read-slice"},
    {14470, 14736, L, 256, "retry-slice"},
    {14736, 15002, L, 256, "retry-slice"},
    {15002, 15268, L, 256, "retry-slice"},
    {15268, 15534, L, 256, "retry-slice"},
    {15534, 16568, L, 1024, "read-slice"},
    {17084, 17350, L, 256, "read-slice"},
    {17350, 17616, L, 256, "read-slice"},
    {17616, 17882, L, 256, "read-slice"},
    {17882, 18148, L, 256, "read-slice"},
};

TEST(ChannelEngine, MixedTrafficMatchesGoldenGrantTrace)
{
    std::vector<Tick> done;
    const auto trace = mixedChannelTrace(false, done);
    expectTrace(trace, kCleanGrants, std::size(kCleanGrants));
    EXPECT_EQ(done, (std::vector<Tick>{2262, 3400, 3442, 3484, 4324, 4366,
                                       4632, 5472, 5514, 5780, 6510, 7544,
                                       8608}));
}

TEST(ChannelEngine, RetryDrainsMatchGoldenGrantTrace)
{
    std::vector<Tick> done;
    const auto trace = mixedChannelTrace(true, done);
    expectTrace(trace, kRetryGrants, std::size(kRetryGrants));
    EXPECT_EQ(done, (std::vector<Tick>{3442, 4386, 4918, 4960, 5534, 5842,
                                       6948, 7214, 10892, 12706, 14470,
                                       16568, 18148}));
}

TEST(ChannelEngine, OfflineMidPageKeepsSlicesAndSuppressesCompletion)
{
    EventQueue eq;
    CompletionRouter router(eq);
    TestClient cl;
    cl.eq = &eq;
    cl.attach(router);
    ChannelEngine ce(eq, testParams(), router);
    std::vector<ChannelBus::GrantTrace> trace;
    ce.bus().setTraceHook(
        [&](const ChannelBus::GrantTrace &g) { trace.push_back(g); });
    ce.submitRead(readJob(cl, 7, 1024, true));
    ChannelEngine::OfflineWork stranded;
    // The page drains from 1050 in slices of 266 ticks; the channel
    // dies during the second slice.
    eq.schedule(1400, [&] { stranded = ce.failOffline(); });
    eq.run();

    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.back().end, 1050u + 4 * 266);
    EXPECT_EQ(ce.bus().busy().busyTicks(), 4u * 266);
    EXPECT_TRUE(cl.read_times.empty());
    EXPECT_EQ(ce.pagesRead(), 0u);
    ASSERT_EQ(stranded.reads.size(), 1u);
    EXPECT_EQ(stranded.reads[0].op_id, 7u);
}

// --- silent slice boundaries ------------------------------------------------

/** Bus counters as one event saw them. */
struct BusSample
{
    Tick now;
    std::uint64_t busy;
    std::uint64_t grants;
    std::uint64_t bytes_low;

    bool operator==(const BusSample &) const = default;
};

BusSample
sampleBus(const EventQueue &eq, const ChannelBus &bus)
{
    return {eq.now(), bus.busy().busyTicks(), bus.grants(), bus.bytesLow()};
}

/**
 * Two sliced pages (1024 then 512 bytes, 256-byte slices of 266
 * ticks) back to back from t=0, sampled one tick before, at and one
 * tick after each of the six slice boundaries. At a boundary tick one
 * sample is numbered before the boundary (scheduled up front) and one
 * after it (scheduled from the sample a tick earlier).
 */
std::vector<BusSample>
samplesAroundBoundaries(bool traced)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 10);
    std::vector<ChannelBus::GrantTrace> trace;
    if (traced)
        bus.setTraceHook(
            [&](const ChannelBus::GrantTrace &g) { trace.push_back(g); });
    std::vector<BusSample> samples;
    const auto sample = [&] { samples.push_back(sampleBus(eq, bus)); };
    for (Tick b = 266; b <= 6 * 266; b += 266) {
        eq.schedule(b - 1, [&, b] {
            sample();
            eq.schedule(b, sample);
        });
        eq.schedule(b, sample);
        eq.schedule(b + 1, sample);
    }
    bus.request(BusPriority::Low, 1024, [] {}, "page0", 256);
    bus.request(BusPriority::Low, 512, [] {}, "page1", 256);
    eq.run();
    EXPECT_EQ(trace.size(), traced ? 6u : 0u);
    return samples;
}

// Recorded from the model that ran every slice boundary as an event.
const BusSample kBoundarySamples[] = {
    // clang-format off
    {265, 266, 1, 256},   {266, 266, 1, 256},   {266, 532, 2, 512},
    {267, 532, 2, 512},   {531, 532, 2, 512},   {532, 532, 2, 512},
    {532, 798, 3, 768},   {533, 798, 3, 768},   {797, 798, 3, 768},
    {798, 798, 3, 768},   {798, 1064, 4, 1024}, {799, 1064, 4, 1024},
    {1063, 1064, 4, 1024}, {1064, 1064, 4, 1024}, {1064, 1330, 5, 1280},
    {1065, 1330, 5, 1280}, {1329, 1330, 5, 1280}, {1330, 1330, 5, 1280},
    {1330, 1596, 6, 1536}, {1331, 1596, 6, 1536}, {1595, 1596, 6, 1536},
    {1596, 1596, 6, 1536}, {1596, 1596, 6, 1536}, {1597, 1596, 6, 1536},
    // clang-format on
};

TEST(ChannelBus, CountersIncludeSilentSlicesAtEveryBoundary)
{
    const std::vector<BusSample> want(std::begin(kBoundarySamples),
                                      std::end(kBoundarySamples));
    EXPECT_EQ(samplesAroundBoundaries(false), want);
    // A trace hook does not change what the counters report.
    EXPECT_EQ(samplesAroundBoundaries(true), want);
}

/** A High request issued at the page's second slice boundary (t=512). */
struct HighAtBoundary
{
    Tick high_done = 0;
    Tick page_done = 0;
    std::uint64_t grants = 0;
    std::uint64_t busy = 0;
};

HighAtBoundary
highAtBoundaryTick(bool before_boundary)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    HighAtBoundary r;
    const auto high = [&] {
        bus.request(BusPriority::High, 10, [&] { r.high_done = eq.now(); });
    };
    // Numbered before the page, so ahead of every slice boundary.
    if (before_boundary)
        eq.schedule(512, high);
    bus.request(BusPriority::Low, 1024, [&] { r.page_done = eq.now(); },
                "page", 256);
    // Numbered at 511, after the boundary at 512 took its number.
    if (!before_boundary)
        eq.schedule(511, [&] { eq.schedule(512, high); });
    eq.run();
    r.grants = bus.grants();
    r.busy = bus.busy().busyTicks();
    return r;
}

TEST(ChannelBus, HighAtABoundaryTickFollowsSequenceOrder)
{
    const HighAtBoundary before = highAtBoundaryTick(true);
    EXPECT_EQ(before.high_done, 522u);
    EXPECT_EQ(before.page_done, 1034u);
    EXPECT_EQ(before.grants, 5u);
    EXPECT_EQ(before.busy, 1034u);
    const HighAtBoundary after = highAtBoundaryTick(false);
    EXPECT_EQ(after.high_done, 778u);
    EXPECT_EQ(after.page_done, 1034u);
    EXPECT_EQ(after.grants, 5u);
    EXPECT_EQ(after.busy, 1034u);
}

/** A 2048-byte page (eight 256-byte slices) whose channel slows to
 *  half rate at t=300 and recovers at t=1500. */
std::vector<ChannelBus::GrantTrace>
rateChangeMidPage(std::vector<BusSample> &samples)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 10);
    std::vector<ChannelBus::GrantTrace> trace;
    bus.setTraceHook(
        [&](const ChannelBus::GrantTrace &g) { trace.push_back(g); });
    const auto sample = [&] { samples.push_back(sampleBus(eq, bus)); };
    bus.request(BusPriority::Low, 2048, sample, "page", 256);
    eq.schedule(300, [&] { bus.setRateScale(0.5); });
    eq.schedule(1500, [&] { bus.setRateScale(1.0); });
    for (Tick t : {299, 301, 1000, 1499, 1501, 2500})
        eq.schedule(t, sample);
    eq.run();
    return trace;
}

// Recorded from the model that ran every slice boundary as an event,
// as are the samples and the other goldens in this section.
const GoldenGrant kRateChangeGrants[] = {
    {0, 266, L, 256, "page"},      {266, 532, L, 256, "page"},
    {532, 1054, L, 256, "page"},   {1054, 1576, L, 256, "page"},
    {1576, 1842, L, 256, "page"},  {1842, 2108, L, 256, "page"},
    {2108, 2374, L, 256, "page"},  {2374, 2640, L, 256, "page"},
};

TEST(ChannelBus, RateChangeMidPageTakesEffectAtTheNextSlice)
{
    std::vector<BusSample> samples;
    const auto trace = rateChangeMidPage(samples);
    expectTrace(trace, kRateChangeGrants, std::size(kRateChangeGrants));
    EXPECT_EQ(samples, (std::vector<BusSample>{
                           {299, 532, 2, 512},
                           {301, 532, 2, 512},
                           {1000, 1054, 3, 768},
                           {1499, 1576, 4, 1024},
                           {1501, 1576, 4, 1024},
                           {2500, 2640, 8, 2048},
                           {2640, 2640, 8, 2048},
                       }));
}

/**
 * Two sliced pages with a High request cutting into the first; the
 * hook sees every slice in grant order, and (because boundaries that
 * re-grant the same page pass silently even with a hook installed) a
 * run's slices are reported when the run ends.
 */
TEST(ChannelBus, TraceHookSeesSilentSlicesInOrder)
{
    EventQueue eq;
    ChannelBus bus(eq, 1.0, 0);
    std::vector<ChannelBus::GrantTrace> trace;
    bus.setTraceHook(
        [&](const ChannelBus::GrantTrace &g) { trace.push_back(g); });
    bus.request(BusPriority::Low, 1024, [] {}, "page0", 256);
    bus.request(BusPriority::Low, 1024, [] {}, "page1", 256);
    eq.schedule(600, [&] { bus.request(BusPriority::High, 10, [] {}, "in"); });
    std::size_t traced_mid = 0;
    std::uint64_t grants_mid = 0;
    eq.schedule(1500, [&] {
        traced_mid = trace.size();
        grants_mid = bus.grants();
    });
    eq.run();
    const GoldenGrant want[] = {
        {0, 256, L, 256, "page0"},      {256, 512, L, 256, "page0"},
        {512, 768, L, 256, "page0"},    {768, 778, H, 10, "in"},
        {778, 1034, L, 256, "page0"},   {1034, 1290, L, 256, "page1"},
        {1290, 1546, L, 256, "page1"},  {1546, 1802, L, 256, "page1"},
        {1802, 2058, L, 256, "page1"},
    };
    expectTrace(trace, want, std::size(want));
    EXPECT_EQ(grants_mid, 7u);
    // page1's slice granted at 1290 passed silently: not yet reported.
    EXPECT_EQ(traced_mid, 6u);
}

// --- flash system -----------------------------------------------------------

TEST(FlashSystem, RoutesWorkToChannels)
{
    EventQueue eq;
    FlashParams p = testParams();
    p.geometry.channels = 4;
    FlashSystem fs(eq, p);
    TestClient cl;
    cl.attach(fs);
    RcTileWork tile;
    tile.client = cl.id;
    tile.op_id = 5;
    tile.cores_used = 1;
    tile.input_bytes = 8;
    tile.out_bytes_per_core = 8;
    tile.compute_time = 100;
    for (std::uint32_t c = 0; c < 4; ++c)
        fs.submitTile(c, tile);
    fs.submitRead(2, readJob(cl, 6, 512, true));
    eq.run();
    EXPECT_EQ(cl.rc_results[5], 4u);
    EXPECT_EQ(cl.read_bytes[6], 512u);
    EXPECT_EQ(fs.pagesComputed(), 4u);
    EXPECT_EQ(fs.pagesRead(), 1u);
    EXPECT_EQ(fs.arrayReads(), 5u);
}

TEST(FlashSystem, ChannelByteAccounting)
{
    EventQueue eq;
    FlashParams p = testParams();
    FlashSystem fs(eq, p);
    TestClient cl;
    cl.attach(fs);
    RcTileWork tile;
    tile.client = cl.id;
    tile.op_id = 1;
    tile.cores_used = 1;
    tile.input_bytes = 100;
    tile.out_bytes_per_core = 20;
    tile.compute_time = 10;
    fs.submitTile(0, tile);
    fs.submitRead(0, readJob(cl, 2, 512, true));
    eq.run();
    EXPECT_EQ(fs.channelBytesHigh(), 120u);
    EXPECT_EQ(fs.channelBytesLow(), 512u);
    EXPECT_EQ(fs.channelBytes(), 632u);
}

TEST(FlashSystem, UtilizationBetweenZeroAndOne)
{
    EventQueue eq;
    FlashParams p = testParams();
    FlashSystem fs(eq, p);
    TestClient cl;
    cl.attach(fs);
    for (int i = 0; i < 5; ++i)
        fs.submitRead(0, readJob(cl, 1, 1024, true));
    eq.run();
    double u = fs.avgChannelUtilization(eq.now());
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
}

/** Bus grants summed over every channel of @p fs. */
std::uint64_t
busGrants(const FlashSystem &fs)
{
    std::uint64_t n = 0;
    for (std::uint32_t c = 0; c < fs.channelCount(); ++c)
        n += fs.channel(c).bus().grants();
    return n;
}

// Background reads (scrub and swap-in) follow the Slice Control the
// device was built with: on a sliced device a 1 KiB page crosses the
// bus as four 256 B slices, on an unsliced one as a single grant.
TEST(FlashSystem, BackgroundReadsFollowSliceControl)
{
    for (const bool sliced : {true, false}) {
        const std::uint64_t read_grants = sliced ? 4 : 1;
        {
            EventQueue eq;
            FlashSystem fs(eq, testParams(), 3, sliced);
            FaultSpec spec;
            spec.model_weight_bytes = 8 * 1024;
            spec.refresh_pages_per_s = 1000.0; // one beat per ms
            fs.armFaults(spec);
            eq.runUntil(kMs + kMs / 2);
            fs.stopRefresh();
            eq.run();
            EXPECT_EQ(fs.refreshPages(), 1u);
            // The scrub read plus its one-grant write-back.
            EXPECT_EQ(busGrants(fs), read_grants + 1) << sliced;
            fs.checkDrained();
        }
        {
            EventQueue eq;
            FlashSystem fs(eq, testParams(), 3, sliced);
            fs.enableKvSwap(8 * 1024);
            ASSERT_TRUE(fs.kvSwapOut(1024, 1024));
            eq.run();
            const std::uint64_t before = busGrants(fs);
            EXPECT_EQ(before, 1u); // the write-out is one grant
            int landed = 0;
            fs.kvSwapIn(1024, 1024, [&] { ++landed; });
            eq.run();
            EXPECT_EQ(landed, 1);
            EXPECT_EQ(busGrants(fs) - before, read_grants) << sliced;
            fs.checkDrained();
        }
    }
}

// A swap-in frees its quota at issue, reads page by page round-robin
// from a cursor that carries over to the next swap-in, and lands once,
// after its last byte.
TEST(FlashSystem, KvSwapInLandsOnceAfterItsLastPage)
{
    EventQueue eq;
    FlashParams p = testParams();
    p.geometry.channels = 4;
    FlashSystem fs(eq, p);
    fs.enableKvSwap(0);
    ASSERT_TRUE(fs.kvSwapOut(5 * 1024, 5 * 1024));
    eq.run();

    int landed = 0;
    fs.kvSwapIn(3 * 1024, 2 * 1024 + 100, [&] { ++landed; });
    fs.kvSwapIn(2 * 1024, 1024, [&] { ++landed; });
    eq.run();
    EXPECT_EQ(landed, 2);
    EXPECT_EQ(fs.deliveredBytes(WorkClass::KvSwap), 3u * 1024 + 100);
    // Pages went to channels 0, 1, 2, then the second swap-in's page
    // to channel 3.
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_EQ(fs.channel(c).pagesRead(), 1u) << c;
    fs.checkDrained(); // both swap-ins returned their 5 pages of quota
}

// --- placement --------------------------------------------------------------

TEST(WeightPlacement, OccupancyTracksAllocations)
{
    WeightPlacement wp(testParams().geometry);
    const std::uint64_t cap = wp.capacityPages();
    wp.seedStriped(cap / 2);
    EXPECT_EQ(wp.pagesAllocated(), cap / 2);
    EXPECT_DOUBLE_EQ(wp.occupancy(), 0.5);
    EXPECT_EQ(wp.freePages(), cap / 2);
}

TEST(WeightPlacement, FillsEntireDeviceWithoutOverlap)
{
    // A full image lands exactly one plane's worth on every plane:
    // each channel holds its own capacity and not a page more.
    FlashGeometry g = testParams().geometry;
    g.channels = 2;
    g.chips_per_channel = 2;
    WeightPlacement wp(g);
    wp.seedStriped(g.totalPages());
    EXPECT_EQ(wp.freePages(), 0u);
    EXPECT_DOUBLE_EQ(wp.occupancy(), 1.0);
    for (std::uint32_t c = 0; c < g.channels; ++c)
        EXPECT_EQ(wp.pagesOnChannel(c), g.totalPages() / g.channels)
            << c;
    EXPECT_DEATH(wp.seedStriped(1), "seeding 1 pages into 0 free");
}

TEST(WeightPlacement, SeedingInSeveralCallsFillsExactly)
{
    // Each call's remainder pages continue where the previous call's
    // ended, so uneven calls still fill both planes to the last page.
    FlashGeometry g = testParams().geometry;
    g.channels = 1;
    g.chips_per_channel = 1;
    g.dies_per_chip = 1;
    g.planes_per_die = 2;
    g.blocks_per_plane = 2;
    g.pages_per_block = 64;
    WeightPlacement wp(g);
    const std::uint64_t cap = wp.capacityPages();
    ASSERT_EQ(cap, 256u);
    wp.seedStriped(cap / 3);
    wp.seedStriped(cap / 5);
    wp.seedStriped(cap - cap / 3 - cap / 5);
    EXPECT_EQ(wp.freePages(), 0u);
    EXPECT_EQ(wp.pagesAllocated(), cap);
    EXPECT_EQ(wp.pagesOnChannel(0), cap);
    // Programs landed evenly too: one plane's worth on each plane.
    EXPECT_EQ(wp.planeWear(0), wp.planeWear(1));
}

} // namespace
} // namespace camllm::flash
