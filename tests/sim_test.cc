/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace camllm {
namespace {

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(10, [&] {
        times.push_back(eq.now());
        eq.scheduleIn(5, [&] { times.push_back(eq.now()); });
    });
    eq.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10u);
    EXPECT_EQ(times[1], 15u);
}

TEST(EventQueue, ScheduleAtCurrentTickRuns)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(7, [&] {
        eq.schedule(7, [&] { ++hits; }); // zero-delay follow-up
    });
    eq.run();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunUntilAdvancesClock)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(10, [&] { ++hits; });
    eq.schedule(100, [&] { ++hits; });
    eq.runUntil(50);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, CountsExecuted)
{
    EventQueue eq;
    for (int i = 0; i < 25; ++i)
        eq.schedule(Tick(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 25u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    eq.step();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 5000; ++i)
        eq.schedule(Tick((i * 7919) % 1000), [&] {
            monotone = monotone && eq.now() >= last;
            last = eq.now();
        });
    eq.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(eq.executed(), 5000u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.step();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduled in the past");
}

// Determinism regression for the pooled kernel: 10k events with
// randomized ticks (dense same-tick bursts near the clock plus a
// sparse far tail) must execute in exact (tick, insertion order).
TEST(EventQueue, RandomizedSameTickInsertionOrderPreserved)
{
    Rng rng(1234);
    EventQueue eq;
    std::vector<std::pair<Tick, int>> fired; // (tick, insertion idx)
    std::vector<std::pair<Tick, int>> want;
    fired.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        // ~40 insertions per tick near now, sparse far tail.
        Tick when = (i % 10 == 0) ? Tick(rng.below(2'000'000))
                                  : Tick(rng.below(250));
        want.emplace_back(when, i);
        eq.schedule(when, [&fired, when, i] {
            fired.emplace_back(when, i);
        });
    }
    eq.run();
    // Stable sort by tick == required order: ties keep insertion order.
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), want.size());
    EXPECT_EQ(fired, want);
    EXPECT_EQ(eq.executed(), 10000u);
}

// Pool recycling: draining and refilling the queue must reuse event
// records from the free list instead of growing the pool.
TEST(EventQueue, PoolRecyclesEventRecords)
{
    EventQueue eq;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 100; ++i)
            eq.schedule(eq.now() + Tick(i % 7), [] {});
        eq.run();
    }
    // 100 concurrently-pending events, 50 rounds: without recycling
    // the pool would hold 5000 records.
    EXPECT_LE(eq.poolAllocated(), 512u);
    EXPECT_EQ(eq.executed(), 5000u);
}

TEST(EventQueue, ReservePreallocatesPool)
{
    EventQueue eq;
    eq.reserve(4000);
    const std::size_t pre = eq.poolAllocated();
    EXPECT_GE(pre, 4000u);
    for (int i = 0; i < 4000; ++i)
        eq.schedule(Tick(i), [] {});
    eq.run();
    // Scheduling within the reservation must not grow the pool.
    EXPECT_EQ(eq.poolAllocated(), pre);
}

// Callbacks bigger than the inline storage take the boxed path; their
// captures must survive and be destroyed exactly once.
TEST(EventQueue, OversizedCallbacksExecuteAndDestroy)
{
    EventQueue eq;
    auto payload = std::make_shared<int>(41);
    std::weak_ptr<int> watch = payload;
    std::uint64_t sum = 0;
    struct Big
    {
        std::shared_ptr<int> p;
        std::uint64_t pad[8];
    } big{std::move(payload), {1, 2, 3, 4, 5, 6, 7, 8}};
    static_assert(sizeof(Big) > EventQueue::kInlineBytes);
    eq.schedule(5, [big = std::move(big), &sum] {
        sum = *big.p + big.pad[7];
    });
    eq.run();
    EXPECT_EQ(sum, 49u);
    EXPECT_TRUE(watch.expired()); // capture destroyed after execution
}

// --- far ticks and same-tick FIFO -------------------------------------------

// Dense ticks mixed with far outliers execute in exact (tick,
// insertion) order.
TEST(EventQueueFarTicks, DenseTicksAndOutliersKeepOrder)
{
    Rng rng(99);
    EventQueue eq;
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < 4000; ++i) {
        Tick when = (i % 5 == 0) ? Tick(1000 + rng.below(500))
                                 : Tick(rng.below(80));
        want.emplace_back(when, i);
        eq.schedule(when, [&fired, when, i] {
            fired.emplace_back(when, i);
        });
    }
    eq.run();
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, want);
}

// Nested scheduling from a running event: one just after it, one far
// beyond an already-pending later event.
TEST(EventQueueFarTicks, NestedSchedulingToLaterTicks)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(15, [&] {
        times.push_back(eq.now());
        eq.schedule(16, [&] { times.push_back(eq.now()); });
        eq.schedule(500, [&] { times.push_back(eq.now()); });
    });
    eq.schedule(31, [&] { times.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{15, 16, 31, 500}));
}

// Events at and next to powers of two up to 2^63, plus kTickMax, each
// tick scheduled twice and inserted in descending order, execute in
// exact (tick, insertion) order.
TEST(EventQueueFarTicks, PowerOfTwoEdgesKeepOrder)
{
    EventQueue eq;
    std::vector<Tick> ticks = {0, kTickMax - 1, kTickMax};
    for (unsigned k : {4, 14, 24, 34, 44, 54, 63}) {
        const Tick e = Tick(1) << k;
        ticks.push_back(e - 1);
        ticks.push_back(e);
        ticks.push_back(e + 1);
    }
    std::sort(ticks.begin(), ticks.end());
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> want;
    int idx = 0;
    for (auto it = ticks.rbegin(); it != ticks.rend(); ++it)
        for (int rep = 0; rep < 2; ++rep, ++idx) {
            const Tick when = *it;
            want.emplace_back(when, idx);
            eq.schedule(when, [&fired, when, idx] {
                fired.emplace_back(when, idx);
            });
        }
    eq.run();
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, want);
    EXPECT_EQ(eq.now(), kTickMax);
}

// Randomized mix of tick scales (dense same-tick collisions up to
// ticks near 2^45).
TEST(EventQueueFarTicks, RandomizedScalesOrderPreserved)
{
    Rng rng(7);
    EventQueue eq;
    const Tick scales[] = {64, Tick(1) << 16, Tick(1) << 26,
                           Tick(1) << 36, Tick(1) << 45};
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < 4000; ++i) {
        const Tick when = Tick(rng.below(scales[i % 5]));
        want.emplace_back(when, i);
        eq.schedule(when, [&fired, when, i] {
            fired.emplace_back(when, i);
        });
    }
    eq.run();
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, want);
    EXPECT_EQ(eq.executed(), 4000u);
}

// A runUntil() that stops inside an idle gap leaves the next pending
// event alone; events scheduled afterwards, below its tick, still run
// first and in order.
TEST(EventQueue, RunUntilIdleGapThenEarlierSchedule)
{
    EventQueue eq;
    std::vector<Tick> times;
    auto mark = [&] { times.push_back(eq.now()); };
    eq.schedule(100000, mark);
    eq.runUntil(50);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.schedule(60, mark);
    eq.schedule(55, mark);
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{55, 60, 100000}));
}

// An event scheduled between the clock and the next pending event
// after a runUntil() runs before that pending event.
TEST(EventQueue, RunUntilThenScheduleBeforeNextPending)
{
    EventQueue eq;
    std::vector<Tick> times;
    auto mark = [&] { times.push_back(eq.now()); };
    eq.schedule(100, mark);
    eq.schedule(900, mark);
    eq.runUntil(500); // runs 100; 900 stays pending
    eq.schedule(600, mark);
    eq.runUntil(700); // must find 600 ahead of 900
    EXPECT_EQ(times, (std::vector<Tick>{100, 600}));
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{100, 600, 900}));
}

// reset() drops near and far pending events alike, so earlier ticks
// are schedulable again from a cold clock.
TEST(EventQueue, ResetClearsFarTicks)
{
    EventQueue eq;
    eq.schedule(30, [] {});
    eq.schedule(100000, [] {});
    eq.schedule(Tick(1) << 44, [] {});
    eq.runUntil(40); // executes 30 only
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    std::vector<Tick> times;
    auto mark = [&] { times.push_back(eq.now()); };
    eq.schedule(5, mark);
    eq.schedule(2, mark);
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{2, 5}));
    EXPECT_EQ(eq.executed(), 2u);
}

// Same-tick FIFO for one far tick whose events are scheduled at
// different clock positions (two up front, two from running events
// at 100 and 17,000,000): they run in insertion order.
TEST(EventQueueSameTick, FifoAcrossSchedulingTimes)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = 20'000'000;
    eq.schedule(far, [&] { order.push_back(0); });
    eq.schedule(100, [&] {
        eq.schedule(far, [&] { order.push_back(2); });
    });
    eq.schedule(far, [&] { order.push_back(1); });
    eq.schedule(17'000'000, [&] {
        eq.schedule(far, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// reserve() must be idempotent and respect free-list refills: only a
// genuinely larger requirement may grow the pool.
TEST(EventQueue, ReserveTopUpAccounting)
{
    EventQueue eq;
    eq.reserve(1000);
    const std::size_t p1 = eq.poolAllocated();
    EXPECT_GE(p1, 1000u);
    eq.reserve(500); // already covered
    EXPECT_EQ(eq.poolAllocated(), p1);
    for (int i = 0; i < 800; ++i)
        eq.schedule(Tick(i % 97), [] {});
    eq.run();
    eq.reserve(1000); // free list was refilled by the run
    EXPECT_EQ(eq.poolAllocated(), p1);
    eq.reserve(5000);
    EXPECT_GE(eq.poolAllocated(), 5000u);
}

// Same-tick FIFO for one far tick: an event scheduled for it from a
// running event, after two were scheduled up front, runs after both.
TEST(EventQueueSameTick, FifoWithinFarTick)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick far = 1'000'000;
    eq.schedule(far, [&] { order.push_back(0); });
    eq.schedule(10, [&eq, &order, far] {
        // Scheduled third in real time, so it runs after both others.
        eq.schedule(far, [&order] { order.push_back(1); });
    });
    eq.schedule(far, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

// --- tickers ----------------------------------------------------------------

/** What one event (or ticker callback) saw of the queue. */
struct Seen
{
    Tick now;
    std::uint64_t executed;
    std::size_t pending;
    int id;

    bool operator==(const Seen &) const = default;
};

/**
 * A periodic boundary run either as an EventQueue::Ticker or as the
 * self-rescheduling event it stands in for; no other event may be
 * able to tell them apart. Firing logs what it saw and re-arms from
 * `plan`.
 */
class Boundary
{
  public:
    Boundary(EventQueue &eq, bool use_ticker, int id, std::vector<Seen> &log)
        : eq_(eq), use_ticker_(use_ticker), id_(id), log_(log),
          ticker_([](void *b) { static_cast<Boundary *>(b)->fire(); }, this)
    {
    }

    ~Boundary()
    {
        if (ticker_.armed())
            eq_.disarm(ticker_);
    }

    bool armed() const { return armed_; }

    void
    arm(Tick period, std::uint64_t silent)
    {
        armed_ = true;
        if (use_ticker_) {
            eq_.arm(ticker_, period, silent);
            return;
        }
        period_ = period;
        silent_ = silent;
        eq_.scheduleIn(period, [this] { boundary(); });
    }

    void
    fireNext()
    {
        if (!armed_)
            return;
        if (use_ticker_)
            eq_.fireNext(ticker_);
        else
            silent_ = 0;
    }

    std::vector<std::pair<Tick, std::uint64_t>> plan; ///< (period, silent)

  private:
    void
    boundary()
    {
        if (silent_ > 0) {
            --silent_;
            eq_.scheduleIn(period_, [this] { boundary(); });
            return;
        }
        fire();
    }

    void
    fire()
    {
        armed_ = false;
        log_.push_back({eq_.now(), eq_.executed(), eq_.pending(), id_});
        if (next_plan_ < plan.size()) {
            const auto [period, silent] = plan[next_plan_++];
            arm(period, silent);
        }
    }

    EventQueue &eq_;
    bool use_ticker_;
    int id_;
    std::vector<Seen> &log_;
    EventQueue::Ticker ticker_;
    bool armed_ = false;
    Tick period_ = 0;
    std::uint64_t silent_ = 0;
    std::size_t next_plan_ = 0;
};

/**
 * Three boundaries (two share period 6, so one ticker lane holds two
 * tickers; one has period 4) among random third-party events on a
 * dense tick range, so ties with boundaries in both same-tick orders
 * are common. Third-party events spawn children (often at the current
 * tick), call fireNext() and arm idle boundaries; the scenario
 * advances with runUntil() in random strides.
 */
class TickerScenario
{
  public:
    TickerScenario(std::uint64_t seed, bool use_ticker) : rng_(seed)
    {
        for (int i = 0; i < 3; ++i)
            bounds_.push_back(std::make_unique<Boundary>(
                eq_, use_ticker, 1000 * (i + 1), log_));
    }

    std::vector<Seen>
    run()
    {
        bounds_[0]->plan = {{6, 2}, {4, 0}};
        bounds_[1]->plan = {{4, 3}};
        for (int i = 0; i < 40; ++i)
            spawn(rng_.below(150));
        bounds_[0]->arm(6, 5);
        for (int i = 0; i < 40; ++i)
            spawn(rng_.below(150));
        bounds_[1]->arm(6, 9);
        bounds_[2]->arm(4, 12);
        for (int i = 0; i < 40; ++i)
            spawn(rng_.below(150));
        // step() is not comparable: the event it stops after differs.
        while (!eq_.empty()) {
            eq_.runUntil(eq_.now() + rng_.below(10));
            log_.push_back({eq_.now(), eq_.executed(), eq_.pending(), -1});
        }
        return log_;
    }

  private:
    void
    spawn(Tick when)
    {
        const int id = next_id_++;
        eq_.schedule(when, [this, id] { act(id); });
    }

    void
    act(int id)
    {
        log_.push_back({eq_.now(), eq_.executed(), eq_.pending(), id});
        if (rng_.chance(0.3))
            spawn(eq_.now() + rng_.below(7));
        if (rng_.chance(0.15))
            bounds_[rng_.below(3)]->fireNext();
        if (rng_.chance(0.15)) {
            Boundary &b = *bounds_[rng_.below(3)];
            if (!b.armed())
                b.arm(rng_.chance(0.5) ? 4 : 6, rng_.below(8));
        }
    }

    EventQueue eq_;
    Rng rng_;
    std::vector<Seen> log_;
    std::vector<std::unique_ptr<Boundary>> bounds_;
    int next_id_ = 0;
};

TEST(EventQueueTicker, MatchesSelfReschedulingEventExactly)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const std::vector<Seen> want = TickerScenario(seed, false).run();
        const std::vector<Seen> got = TickerScenario(seed, true).run();
        ASSERT_EQ(got, want) << "seed " << seed;
        // Boundary callbacks really ran (ids 1000..3000).
        EXPECT_GE(std::count_if(got.begin(), got.end(),
                                [](const Seen &r) { return r.id >= 1000; }),
                  4)
            << "seed " << seed;
    }
}

TEST(EventQueueTicker, SilentBoundariesCountAsEvents)
{
    EventQueue eq;
    int fired = 0;
    EventQueue::Ticker t([](void *n) { ++*static_cast<int *>(n); }, &fired);
    eq.arm(t, 10, 3);
    EXPECT_TRUE(t.armed());
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.armed());
    EXPECT_EQ(t.passes(), 3u);
    EXPECT_EQ(eq.now(), 40u);
    EXPECT_EQ(eq.executed(), 4u);
}

/** Tick the ticker's callback runs at when a fireNext() event at tick
 *  30 is ordered before (or after) the boundary at 30. */
Tick
fireNextAt30(bool before_boundary)
{
    EventQueue eq;
    Tick fired_at = 0;
    struct Ctx
    {
        EventQueue *eq;
        Tick *at;
    } ctx{&eq, &fired_at};
    EventQueue::Ticker t(
        [](void *c) {
            auto *x = static_cast<Ctx *>(c);
            *x->at = x->eq->now();
        },
        &ctx);
    if (before_boundary) {
        // Numbered before the arm, so ahead of every boundary.
        eq.schedule(30, [&] { eq.fireNext(t); });
        eq.arm(t, 10, 5);
    } else {
        eq.arm(t, 10, 5);
        // Numbered at 25, after the boundary at 30 took its number
        // (at the pass at 20).
        eq.schedule(25, [&] { eq.schedule(30, [&] { eq.fireNext(t); }); });
    }
    eq.run();
    EXPECT_FALSE(t.armed());
    return fired_at;
}

TEST(EventQueueTicker, FireNextAtABoundaryTickHonoursSequenceOrder)
{
    EXPECT_EQ(fireNextAt30(true), 30u);
    EXPECT_EQ(fireNextAt30(false), 40u);
}

TEST(EventQueueTicker, RunUntilStopsAroundBoundaries)
{
    EventQueue eq;
    int fired = 0;
    EventQueue::Ticker t([](void *n) { ++*static_cast<int *>(n); }, &fired);
    eq.arm(t, 10, 3); // passes at 10, 20, 30; fires at 40
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.schedule(5, [] {});
    EXPECT_EQ(eq.pending(), 2u);

    EXPECT_EQ(eq.runUntil(25), 25u);
    EXPECT_EQ(eq.executed(), 3u); // the event at 5 + passes at 10, 20
    EXPECT_EQ(t.passes(), 2u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.runUntil(30), 30u); // a boundary exactly at the limit
    EXPECT_EQ(t.passes(), 3u);
    EXPECT_EQ(eq.runUntil(39), 39u);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(eq.runUntil(40), 40u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.executed(), 5u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueTicker, ResetDisarms)
{
    EventQueue eq;
    int fired = 0;
    EventQueue::Ticker t([](void *n) { ++*static_cast<int *>(n); }, &fired);
    eq.arm(t, 10, 3);
    eq.schedule(15, [] {});
    eq.runUntil(12);
    eq.reset();
    EXPECT_FALSE(t.armed());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
    eq.run();
    EXPECT_EQ(fired, 0);
    // The record is reusable after a reset.
    eq.arm(t, 7, 0);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueueTicker, LanesOfDifferentPeriodsInterleave)
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> fired;
    struct Ctx
    {
        EventQueue *eq;
        std::vector<std::pair<Tick, int>> *fired;
        int id;
    };
    Ctx ca{&eq, &fired, 0}, cb{&eq, &fired, 1}, cc{&eq, &fired, 2};
    const auto log = [](void *c) {
        auto *x = static_cast<Ctx *>(c);
        x->fired->emplace_back(x->eq->now(), x->id);
    };
    EventQueue::Ticker a(log, &ca), b(log, &cb), c(log, &cc);
    eq.arm(a, 3, 3); // 3 6 9 pass, fires at 12
    eq.arm(b, 4, 2); // 4 8 pass, fires at 12 (numbered after a's 12)
    eq.arm(c, 3, 1); // same lane as a; withdrawn before it fires
    eq.schedule(12, [&] { fired.emplace_back(eq.now(), 9); });
    eq.runUntil(4);
    eq.disarm(c);
    EXPECT_FALSE(c.armed());
    eq.run();
    // The event at 12 was numbered first; a's and b's final
    // boundaries took their numbers at 9 and 8, b's before a's.
    EXPECT_EQ(fired, (std::vector<std::pair<Tick, int>>{
                         {12, 9}, {12, 1}, {12, 0}}));
    EXPECT_EQ(eq.executed(), 3u + 2u + 1u + 3u);
}

TEST(EventQueueTickerDeath, ArmingAnArmedTickerPanics)
{
    EventQueue eq;
    EventQueue::Ticker t([](void *) {}, nullptr);
    eq.arm(t, 10, 0);
    EXPECT_DEATH(eq.arm(t, 10, 0), "armed twice");
    eq.disarm(t);
}

TEST(EventQueueTickerDeath, ArmingPastTheClockRangePanics)
{
    EventQueue eq;
    eq.schedule(kTickMax - 1, [] {});
    eq.step();
    ASSERT_EQ(eq.now(), kTickMax - 1);
    EventQueue::Ticker t([](void *) {}, nullptr);
    // The first boundary would wrap to tick 0.
    EXPECT_DEATH(eq.arm(t, 2, 0), "overflows the clock");
    // So would the last silent one, however short the period.
    EXPECT_DEATH(eq.arm(t, 1, 1), "overflows the clock");
    EXPECT_DEATH(eq.arm(t, 1, ~std::uint64_t(0)), "overflows the clock");
    // A ticker whose last boundary lands exactly on kTickMax is fine.
    eq.arm(t, 1, 0);
    EXPECT_TRUE(t.armed());
    eq.disarm(t);

    // Mid-range: now = 2^63 - 1 and period 2, so 2^62 - 1 silent
    // boundaries plus the firing one reach exactly kTickMax; one more
    // silent boundary wraps.
    EventQueue mid;
    mid.schedule(kTickMax / 2, [] {});
    mid.step();
    const std::uint64_t quarter = std::uint64_t(1) << 62;
    EXPECT_DEATH(mid.arm(t, 2, quarter), "overflows the clock");
    mid.arm(t, 2, quarter - 1);
    mid.disarm(t);
}

// --- same-tick runs: differential test against a naive queue ---------------

/**
 * The kernel's contract written out naively: one ordered map keyed by
 * (tick, sequence number) holding events and armed tickers alike. A
 * ticker entry passes silently (re-entering one period later with a
 * fresh number) until its silent count runs out, then fires.
 */
class RefQueue
{
  public:
    class Ticker
    {
      public:
        using Fn = void (*)(void *ctx);

        Ticker(Fn fn, void *ctx) : fn_(fn), ctx_(ctx) {}
        bool armed() const { return armed_; }

      private:
        friend class RefQueue;

        Fn fn_;
        void *ctx_;
        Tick period_ = 0;
        std::uint64_t silent_ = 0;
        bool armed_ = false;
    };

    Tick now() const { return now_; }
    std::uint64_t executed() const { return executed_; }
    std::size_t pending() const { return q_.size(); }
    bool empty() const { return q_.empty(); }

    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        ASSERT_GE(when, now_);
        q_.emplace(Key{when, seq_++},
                   Entry{std::function<void()>(std::forward<F>(fn)),
                         nullptr});
    }

    void
    arm(Ticker &t, Tick period, std::uint64_t silent)
    {
        t.armed_ = true;
        t.period_ = period;
        t.silent_ = silent;
        q_.emplace(Key{now_ + period, seq_++}, Entry{{}, &t});
    }

    void fireNext(Ticker &t) { t.silent_ = 0; }

    void
    disarm(Ticker &t)
    {
        for (auto it = q_.begin(); it != q_.end(); ++it)
            if (it->second.ticker == &t) {
                q_.erase(it);
                break;
            }
        t.armed_ = false;
    }

    bool step() { return runNext(kTickMax); }

    Tick
    runUntil(Tick limit)
    {
        while (runNext(limit)) {
        }
        now_ = std::max(now_, limit);
        return now_;
    }

    void
    reset()
    {
        for (auto &[key, e] : q_)
            if (e.ticker != nullptr)
                e.ticker->armed_ = false;
        q_.clear();
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
    }

  private:
    using Key = std::pair<Tick, std::uint64_t>;

    struct Entry
    {
        std::function<void()> fn;
        Ticker *ticker;
    };

    /** Pass silent boundaries up to the first callback with tick <=
     *  @p limit and run it; @return false if none was run. */
    bool
    runNext(Tick limit)
    {
        for (;;) {
            if (q_.empty() || q_.begin()->first.first > limit)
                return false;
            auto node = q_.extract(q_.begin());
            now_ = node.key().first;
            ++executed_;
            Ticker *t = node.mapped().ticker;
            if (t == nullptr) {
                node.mapped().fn();
                return true;
            }
            if (t->silent_ == 0) {
                t->armed_ = false;
                t->fn_(t->ctx_);
                return true;
            }
            --t->silent_;
            q_.emplace(Key{now_ + t->period_, seq_++}, Entry{{}, t});
        }
    }

    std::map<Key, Entry> q_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

/** One observation: an event or ticker callback (id >= 0) or the
 *  driver after one of its calls (id < 0). */
struct Observed
{
    int id;
    Tick now;
    std::uint64_t executed;
    std::size_t pending;
    long live; ///< event callbacks alive (their captures not yet freed)

    bool operator==(const Observed &) const = default;
};

/**
 * A seeded mix aimed at same-tick runs, driving queue type Q: bursts
 * of same-tick schedules (zero-delay ones from inside running
 * events too) at ticks spread over the whole 64-bit range up to
 * kTickMax, tickers whose periods match the burst delays so their
 * arm(), passes, fireNext() and disarm() land on ticks with open
 * runs, and a driver that alternates step(), runUntil() limits
 * (between runs and anywhere up to kTickMax) and an occasional
 * reset(). The queue is destroyed with events pending.
 */
template <typename Q>
class RunScenario
{
  public:
    explicit RunScenario(std::uint64_t seed)
        : rng_(seed), q_(std::make_unique<Q>())
    {
        for (int i = 0; i < 3; ++i)
            tickers_.push_back(std::make_unique<TickerCtx>(this, i));
    }

    ~RunScenario() { destroyQueue(); }

    std::vector<Observed>
    run()
    {
        burst();
        burst();
        for (int op = 0; op < 80 && !q_->empty(); ++op) {
            const std::uint64_t r = rng_.below(20);
            if (r < 8) {
                q_->step();
            } else if (r < 17) {
                q_->runUntil(ahead(rng_.below(12)));
            } else if (r < 19) {
                q_->runUntil(ahead(spread()));
            } else {
                q_->reset();
                burst();
            }
            observe(-1);
            if (rng_.chance(0.2))
                burst();
        }
        return log_;
    }

    /** Disarm the tickers and destroy the queue with its events still
     *  pending; its destructor must free every pending callback. */
    void
    destroyQueue()
    {
        for (auto &t : tickers_)
            if (t->ticker.armed())
                q_->disarm(t->ticker);
        q_.reset();
    }

    long live() const { return token_.use_count() - 1; }

  private:
    struct TickerCtx
    {
        TickerCtx(RunScenario *s, int i)
            : scenario(s), id(100000 + i),
              ticker([](void *c) { static_cast<TickerCtx *>(c)->fire(); },
                     this)
        {
        }

        void
        fire()
        {
            scenario->observe(id);
            scenario->tickerActs();
        }

        RunScenario *scenario;
        int id;
        typename Q::Ticker ticker;
    };

    /** now() + @p d, saturating at kTickMax. */
    Tick
    ahead(Tick d) const
    {
        return q_->now() + std::min(d, kTickMax - q_->now());
    }

    /** A delay of any magnitude up to 2^64 - 1 (often exactly). */
    Tick
    spread()
    {
        if (rng_.chance(0.25))
            return kTickMax;
        return rng_.next() >> rng_.below(64);
    }

    /** A delay that often matches a ticker period (2, 4 or 8). */
    Tick
    delay()
    {
        const std::uint64_t r = rng_.below(16);
        if (r < 4)
            return 0;
        if (r < 12)
            return Tick(1) << rng_.below(4);
        if (r < 14)
            return Tick(16) + rng_.below(Tick(1) << 20);
        if (r < 15)
            return Tick(1) << (20 + rng_.below(20));
        return spread();
    }

    /** A run of same-tick schedules at now() + delay(), saturating at
     *  kTickMax. */
    void
    burst()
    {
        const Tick when = ahead(delay());
        const std::uint64_t n = 1 + rng_.below(12);
        for (std::uint64_t i = 0; i < n && budget_ > 0; ++i)
            spawn(when);
    }

    void
    spawn(Tick when)
    {
        --budget_;
        const int id = next_id_++;
        q_->schedule(when, [this, id, token = token_] { act(id); });
    }

    void
    act(int id)
    {
        observe(id);
        if (rng_.chance(0.25))
            spawn(q_->now()); // zero delay, from a running event
        if (rng_.chance(0.2))
            burst();
        tickerActs();
    }

    void
    tickerActs()
    {
        TickerCtx &t = *tickers_[rng_.below(tickers_.size())];
        const std::uint64_t r = rng_.below(10);
        if (!t.ticker.armed()) {
            // Its boundaries (at most 6 periods of at most 8 ticks)
            // must not pass kTickMax.
            if (r < 4 && q_->now() <= kTickMax - 48)
                q_->arm(t.ticker, Tick(2) << rng_.below(3), rng_.below(6));
        } else if (r < 2) {
            q_->fireNext(t.ticker);
        } else if (r < 3) {
            q_->disarm(t.ticker);
        }
    }

    void
    observe(int id)
    {
        log_.push_back({id, q_->now(), q_->executed(), q_->pending(),
                        live()});
    }

    Rng rng_;
    std::unique_ptr<Q> q_;
    std::vector<std::unique_ptr<TickerCtx>> tickers_;
    std::vector<Observed> log_;
    std::shared_ptr<int> token_ = std::make_shared<int>(0);
    int budget_ = 400;
    int next_id_ = 0;
};

TEST(EventQueueRuns, MatchesNaiveReferenceExactly)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        RunScenario<EventQueue> real(seed);
        RunScenario<RefQueue> ref(seed);
        const std::vector<Observed> got = real.run();
        const std::vector<Observed> want = ref.run();
        for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
            ASSERT_EQ(got[i], want[i])
                << "seed " << seed << ", observation " << i << ": id "
                << got[i].id << " vs " << want[i].id << " at " << got[i].now
                << " vs " << want[i].now;
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        EXPECT_EQ(real.live(), ref.live()) << "seed " << seed;
        real.destroyQueue();
        EXPECT_EQ(real.live(), 0) << "seed " << seed;
    }
}

} // namespace
} // namespace camllm
