/**
 * @file
 * Fault-injection and resilience tests: FaultModel determinism and
 * retry-ladder shape, CompletionRouter port teardown, WeightPlacement
 * remap conservation, and serve()-level behavior under soft read
 * failures, channel loss, deadlines, cancellation and SLO-aware
 * degradation. Labeled "robustness" in CMake (ctest -L robustness).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/arrivals.h"
#include "core/presets.h"
#include "core/scheduler.h"
#include "core/sweep.h"
#include "ecc/retention.h"
#include "flash/completion.h"
#include "flash/fault.h"
#include "flash/placement.h"
#include "llm/model_config.h"
#include "sim/event_queue.h"

namespace camllm {
namespace {

using core::RequestOutcome;
using core::SchedOptions;
using core::SchedPolicy;
using core::Scheduler;
using core::ServeRequest;
using core::ServeStats;

// ---------------------------------------------------------------------------
// FaultModel unit behavior
// ---------------------------------------------------------------------------

TEST(FaultModel, IdenticalSpecsDrawIdenticalTimelines)
{
    flash::FaultSpec spec;
    spec.ucp_rate = 0.2;
    spec.seed = 42;
    flash::FaultModel a(spec), b(spec);
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(a.drawRetries(), b.drawRetries()) << "draw " << i;
    EXPECT_EQ(a.drawsTaken(), b.drawsTaken());
}

TEST(FaultModel, SeedChangesTheTimeline)
{
    flash::FaultSpec spec;
    spec.ucp_rate = 0.2;
    spec.seed = 1;
    flash::FaultSpec other = spec;
    other.seed = 2;
    flash::FaultModel a(spec), b(other);
    bool diverged = false;
    for (int i = 0; i < 2000 && !diverged; ++i)
        diverged = a.drawRetries() != b.drawRetries();
    EXPECT_TRUE(diverged);
}

TEST(FaultModel, LadderIsBoundedAndEscalates)
{
    flash::FaultSpec spec;
    spec.ucp_rate = 0.9; // fails as often as the clamp allows
    constexpr std::uint32_t kRungs = flash::RetryLadder::kMaxRetries;
    const Tick t_read = 25 * kUs;
    flash::FaultModel m(spec, 16384, t_read);
    for (int i = 0; i < 500; ++i)
        ASSERT_LE(m.drawRetries(), kRungs);
    // Attempt 0 is the base sense time, exactly; later rungs escalate
    // strictly.
    EXPECT_EQ(m.senseTime(0), t_read);
    Tick prev = t_read;
    for (std::uint32_t k = 1; k <= kRungs; ++k) {
        const Tick t = m.senseTime(k);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(FaultModel, RetentionAndWearScaleTheFailureRate)
{
    flash::FaultSpec fresh;
    fresh.ucp_rate = 1e-3;
    flash::FaultSpec aged = fresh;
    aged.retention_hours = 10000.0;
    aged.pe_cycles = 3000.0;
    EXPECT_DOUBLE_EQ(fresh.effectiveUcpRate(), 1e-3);
    EXPECT_GT(aged.effectiveUcpRate(), fresh.effectiveUcpRate());
    // The scaling is exactly the retention model's BER ratio.
    const ecc::RetentionParams p;
    const double ratio =
        ecc::retentionBer(aged.retention_hours, aged.pe_cycles, p) /
        p.base_ber;
    EXPECT_DOUBLE_EQ(aged.effectiveUcpRate(),
                     std::min(1e-3 * ratio, 0.9));
    // And it clamps: an absurd age cannot exceed 0.9.
    flash::FaultSpec ancient = fresh;
    ancient.ucp_rate = 0.5;
    ancient.retention_hours = 1e6;
    ancient.pe_cycles = 1e5;
    EXPECT_DOUBLE_EQ(ancient.effectiveUcpRate(), 0.9);
}

TEST(FaultModel, InactiveSpecInjectsNothing)
{
    flash::FaultSpec spec;
    EXPECT_FALSE(spec.any());
    spec.seed = 999; // a seed alone arms nothing
    EXPECT_FALSE(spec.any());
    flash::FaultModel m(spec);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(m.drawRetries(), 0u);
    EXPECT_EQ(m.drawsTaken(), 0u); // zero-rate draws consume no Rng
}

// ---------------------------------------------------------------------------
// CompletionRouter port lifecycle
// ---------------------------------------------------------------------------

TEST(CompletionRouter, DisconnectDropsQueuedAndFutureRecords)
{
    EventQueue eq;
    flash::CompletionRouter router(eq);
    int live_calls = 0, dead_calls = 0;
    const flash::ClientId live =
        router.connect([&](const flash::Completion &) { ++live_calls; });
    const flash::ClientId dead =
        router.connect([&](const flash::Completion &) { ++dead_calls; });

    flash::Completion c;
    c.kind = flash::Completion::Kind::ReadData;
    c.bytes = 64;
    c.client = dead;
    router.deliver(c); // queued + drain scheduled
    c.client = live;
    router.deliver(c);

    // Disconnect while a drain for the dead port is already in the
    // event queue: the queued record is dropped on the spot and the
    // drain must find the port dead and never touch the handler.
    router.disconnect(dead);
    EXPECT_EQ(router.dropped(), 1u);

    eq.run();
    EXPECT_EQ(live_calls, 1);
    EXPECT_EQ(dead_calls, 0);

    // Anything the device still produces for the dead client is
    // swallowed, not delivered and not leaked into another port.
    c.client = dead;
    router.deliver(c);
    eq.run();
    EXPECT_EQ(router.dropped(), 2u);
    EXPECT_EQ(dead_calls, 0);
    EXPECT_EQ(live_calls, 1);
}

TEST(CompletionRouter, HandlerMayDisconnectItselfMidBatch)
{
    EventQueue eq;
    flash::CompletionRouter router(eq);
    int calls = 0;
    flash::ClientId id = 0;
    id = router.connect([&](const flash::Completion &) {
        ++calls;
        router.disconnect(id); // e.g. a timeout firing inside a drain
    });
    flash::Completion c;
    c.client = id;
    router.deliver(c);
    router.deliver(c); // second record must be dropped, not delivered
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(router.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// WeightPlacement remap
// ---------------------------------------------------------------------------

TEST(WeightPlacement, RemapConservesPagesAndRetiresCapacity)
{
    const flash::FlashGeometry g = core::presetS().flash.geometry;
    flash::WeightPlacement place(g);
    const std::uint64_t pages = g.totalPages() / 2;
    place.seedStriped(pages);
    EXPECT_EQ(place.pagesAllocated(), pages);

    const std::uint64_t on_ch0 = place.pagesOnChannel(0);
    EXPECT_GT(on_ch0, 0u);

    const std::uint64_t cap_before = place.capacityPages();
    const std::uint64_t moved = place.remapChannel(0);
    EXPECT_EQ(moved, on_ch0);
    EXPECT_TRUE(place.channelDead(0));
    EXPECT_EQ(place.pagesOnChannel(0), 0u);
    EXPECT_LT(place.capacityPages(), cap_before);

    // Conservation: every stranded page lives on a survivor now.
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < g.channels; ++c)
        total += place.pagesOnChannel(c);
    EXPECT_EQ(total, pages);
    EXPECT_EQ(place.pagesAllocated(), pages);
    EXPECT_LE(place.pagesAllocated(), place.capacityPages());
}

// ---------------------------------------------------------------------------
// serve() under faults
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

void
expectBalanced(const ServeStats &st, std::size_t n)
{
    EXPECT_EQ(st.completed + st.shed_slo + st.timeouts + st.cancelled +
                  st.rejected_infeasible,
              n);
}

TEST(FaultServing, InactiveSpecIsBitIdentical)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const SchedOptions base = chunkedOpts();
    SchedOptions seeded = base;
    seeded.faults.seed = 12345; // still inactive: nothing is armed
    const ServeStats a = sched.serve(smallTrace(), base);
    const ServeStats b = sched.serve(smallTrace(), seeded);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    EXPECT_EQ(a.sim_makespan, b.sim_makespan);
    EXPECT_EQ(a.total_tokens, b.total_tokens);
    EXPECT_EQ(a.read_retries, 0u);
    EXPECT_EQ(b.read_retries, 0u);
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].finish_tick, b.requests[i].finish_tick);
        EXPECT_EQ(a.requests[i].total_token_time,
                  b.requests[i].total_token_time);
        EXPECT_EQ(a.requests[i].prefill_time, b.requests[i].prefill_time);
    }
}

TEST(FaultServing, ReadRetriesDegradeServiceDeterministically)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const ServeStats clean = sched.serve(smallTrace(), chunkedOpts());

    SchedOptions opt = chunkedOpts();
    opt.faults.ucp_rate = 0.05;
    opt.faults.seed = 7;
    const ServeStats faulty = sched.serve(smallTrace(), opt);

    EXPECT_GT(faulty.read_retries, 0u);
    EXPECT_GT(faulty.retry_channel_bytes, 0u);
    // Every retry re-occupies a die (and often a bus): service can
    // only get slower.
    EXPECT_GE(faulty.sim_makespan, clean.sim_makespan);
    EXPECT_EQ(faulty.completed, 2u);
    expectBalanced(faulty, 2);
    // Retry traffic is billed apart from the serving classes.
    EXPECT_EQ(faulty.prefill_channel_bytes, clean.prefill_channel_bytes);

    // Same spec, same timeline — bit-identical reruns.
    const ServeStats again = sched.serve(smallTrace(), opt);
    EXPECT_EQ(again.sim_makespan, faulty.sim_makespan);
    EXPECT_EQ(again.read_retries, faulty.read_retries);
    EXPECT_EQ(again.retry_channel_bytes, faulty.retry_channel_bytes);
    EXPECT_EQ(again.requests[0].finish_tick,
              faulty.requests[0].finish_tick);
    EXPECT_EQ(again.requests[1].finish_tick,
              faulty.requests[1].finish_tick);
}

TEST(FaultServing, ChannelOfflineRemapsAndCompletes)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const ServeStats clean = sched.serve(smallTrace(), chunkedOpts());

    SchedOptions opt = chunkedOpts();
    opt.faults.addOffline(0, 5 * kMs); // mid-prefill
    const ServeStats faulty = sched.serve(smallTrace(), opt);

    EXPECT_EQ(faulty.channels_lost, 1u);
    EXPECT_GT(faulty.remap_bytes, 0u);
    EXPECT_EQ(faulty.completed, 2u);
    expectBalanced(faulty, 2);
    // One fewer channel plus the rebuild traffic: strictly slower.
    EXPECT_GT(faulty.sim_makespan, clean.sim_makespan);
}

TEST(FaultServing, ChannelSlowdownWindowDegradesService)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const ServeStats clean = sched.serve(smallTrace(), chunkedOpts());

    SchedOptions opt = chunkedOpts();
    opt.faults.addSlowdown(0, 8.0, 0, 40 * kMs);
    const ServeStats faulty = sched.serve(smallTrace(), opt);
    EXPECT_EQ(faulty.completed, 2u);
    EXPECT_EQ(faulty.channels_lost, 0u);
    EXPECT_GT(faulty.sim_makespan, clean.sim_makespan);
}

TEST(FaultServing, DeadlineTearsDownQueuedAndRunningRequests)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    std::vector<ServeRequest> reqs = {
        {128, 0, 2, 0}, {192, 0, 2, 0}, {128, 0, 2, 0}};
    reqs[2].cancel_at = 1 * kMs; // gives up while still queued
    SchedOptions opt = chunkedOpts();
    opt.max_batch = 1;
    opt.request_deadline = 2 * kMs; // far below any prefill time
    const ServeStats st = sched.serve(reqs, opt);
    // Request 0 is torn down mid-prefill at its deadline; the freed
    // slot admits request 1 on the same tick, whose own deadline
    // event then kills it. Request 2 was cancelled while queued and
    // never entered a slot.
    EXPECT_EQ(st.timeouts, 2u);
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.admitted, 2u);
    expectBalanced(st, 3);
    EXPECT_EQ(st.requests[0].outcome, RequestOutcome::TimedOut);
    EXPECT_EQ(st.requests[1].outcome, RequestOutcome::TimedOut);
    EXPECT_EQ(st.requests[2].outcome, RequestOutcome::Cancelled);
    for (const auto &r : st.requests) {
        EXPECT_EQ(r.tokens_emitted, 0u);
        EXPECT_EQ(r.ttft_ms, 0.0); // no first token, no sample
    }
    // The makespan is the last request exit, not the tail of no-op
    // deadline events or abandoned device drains.
    EXPECT_EQ(st.sim_makespan, 2 * kMs);
}

TEST(FaultServing, GenerousDeadlineDoesNotPerturbTheSchedule)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const ServeStats clean = sched.serve(smallTrace(), chunkedOpts());
    SchedOptions opt = chunkedOpts();
    opt.request_deadline = 1000 * kSec;
    const ServeStats st = sched.serve(smallTrace(), opt);
    EXPECT_EQ(st.timeouts, 0u);
    EXPECT_EQ(st.completed, 2u);
    ASSERT_EQ(st.requests.size(), clean.requests.size());
    for (std::size_t i = 0; i < st.requests.size(); ++i) {
        EXPECT_EQ(st.requests[i].finish_tick,
                  clean.requests[i].finish_tick);
        EXPECT_EQ(st.requests[i].total_token_time,
                  clean.requests[i].total_token_time);
    }
    EXPECT_EQ(st.sim_makespan, clean.sim_makespan);
}

TEST(FaultServing, CancellationReleasesTheSlotMidFlight)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    std::vector<ServeRequest> reqs = smallTrace();
    reqs[1].cancel_at = 5 * kMs; // mid-prefill
    const ServeStats st = sched.serve(reqs, chunkedOpts());
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.completed, 1u);
    expectBalanced(st, 2);
    EXPECT_EQ(st.requests[1].outcome, RequestOutcome::Cancelled);
    EXPECT_EQ(st.requests[1].tokens_emitted, 0u);
    EXPECT_EQ(st.requests[0].outcome, RequestOutcome::Completed);
    EXPECT_GT(st.requests[0].tokens_per_s, 0.0);
    // Goodput counts only the survivor's tokens.
    EXPECT_GT(st.goodput_tokens_per_s, 0.0);
}

TEST(FaultServing, SloShedNewestTurnsAwayLateArrivals)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const std::vector<ServeRequest> reqs = {
        {128, 0, 2, 0}, {128, 0, 2, 0}, {128, 0, 2, 0}, {128, 0, 2, 0}};
    SchedOptions opt = chunkedOpts();
    opt.max_batch = 2;
    opt.slo_ttft_ms = 0.5; // far below any real projected TTFT
    const ServeStats st = sched.serve(reqs, opt);
    // The first admissions happen before any chunk has landed (no
    // EMA yet — never shed blind); once slots free the projection is
    // live and the tiny SLO sheds the rest.
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.shed_slo, 2u);
    expectBalanced(st, 4);
    EXPECT_EQ(st.requests[2].outcome, RequestOutcome::ShedSlo);
    EXPECT_EQ(st.requests[3].outcome, RequestOutcome::ShedSlo);
}

// Cold-start pin: projectedTtftMs must admit when no prefill chunk
// has ever finished — the EMA is empty and there is no measured rate
// to project from. A whole burst at t = 0 that fits the batch limit
// therefore admits in full even under an absurdly tight SLO; shedding
// any of it would be shedding blind.
TEST(FaultServing, ColdStartBurstNeverShedsOnEmptyEma)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const std::vector<ServeRequest> reqs = {
        {128, 0, 2, 0}, {128, 0, 2, 0}, {128, 0, 2, 0}, {128, 0, 2, 0}};
    SchedOptions opt = chunkedOpts();
    opt.max_batch = 4; // the whole burst fits: all admit cold
    opt.slo_ttft_ms = 0.001;
    const ServeStats st = sched.serve(reqs, opt);
    EXPECT_EQ(st.shed_slo, 0u);
    EXPECT_EQ(st.completed, 4u);
    expectBalanced(st, 4);
}

// One trace that leaves through every exit at once. With two slots,
// requests 0 (short) and 1 (long) are admitted cold at t = 0; request
// 4 gives up while queued; request 0's completion frees a slot, where
// request 2's KV demand is rejected as infeasible and request 3 is
// shed by the (now live) SLO projection; request 1 then blows the
// deadline, which falls between the two running requests' finishes.
TEST(FaultServing, OneServeEndsInAllFiveOutcomes)
{
    const llm::ModelConfig model = llm::opt6_7b();
    const Scheduler sched(core::presetS(), model);
    std::vector<ServeRequest> reqs = {
        {32, 0, 1, 0},       // completes
        {256, 0, 8, 0},      // times out mid-run
        {0, 1u << 20, 1, 0}, // KV demand exceeds the whole pool
        {128, 0, 2, 0},      // shed by the SLO guard
        {128, 0, 2, 0},      // cancelled while queued
    };
    reqs[4].cancel_at = 1;
    SchedOptions opt = chunkedOpts();
    opt.kv_block_tokens = 16;
    opt.kv_budget_bytes =
        256 * 16 * std::uint64_t(model.kvDim()) * model.n_layers;
    opt.slo_ttft_ms = 0.001;

    // Deadline events never perturb the schedule, so the run without
    // one places a deadline between the two running requests' exits.
    const ServeStats clean = sched.serve(reqs, opt);
    ASSERT_EQ(clean.requests[0].outcome, RequestOutcome::Completed);
    ASSERT_EQ(clean.requests[1].outcome, RequestOutcome::Completed);
    ASSERT_LT(clean.requests[0].finish_tick,
              clean.requests[1].finish_tick);
    opt.request_deadline = (clean.requests[0].finish_tick +
                            clean.requests[1].finish_tick) /
                           2;

    testing::internal::CaptureStderr();
    const ServeStats st = sched.serve(reqs, opt);
    const std::string log = testing::internal::GetCapturedStderr();
    // A sub-millisecond SLO reads as itself in the shed warning.
    EXPECT_NE(log.find("exceeds SLO 0.001 ms"), std::string::npos) << log;
    EXPECT_EQ(st.requests[0].outcome, RequestOutcome::Completed);
    EXPECT_EQ(st.requests[1].outcome, RequestOutcome::TimedOut);
    EXPECT_EQ(st.requests[2].outcome,
              RequestOutcome::RejectedInfeasible);
    EXPECT_EQ(st.requests[3].outcome, RequestOutcome::ShedSlo);
    EXPECT_EQ(st.requests[4].outcome, RequestOutcome::Cancelled);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.timeouts, 1u);
    EXPECT_EQ(st.rejected_infeasible, 1u);
    EXPECT_EQ(st.shed_slo, 1u);
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.admitted, 2u);
    expectBalanced(st, reqs.size());
    EXPECT_EQ(st.requests[1].finish_tick, opt.request_deadline);
    EXPECT_EQ(st.requests[4].finish_tick, 1u);
    Tick last_exit = 0;
    for (const auto &r : st.requests)
        last_exit = std::max(last_exit, r.finish_tick);
    EXPECT_EQ(st.sim_makespan, last_exit);
}

// Identical fault specs must produce identical timelines no matter
// how many sweep workers run serve() concurrently: each run owns its
// Rng, consumed in (single-threaded) event order.
TEST(FaultServing, SweepThreadCountDoesNotChangeFaultTimelines)
{
    const Scheduler sched(core::presetS(), llm::opt6_7b());
    const double ucps[3] = {0.0, 0.02, 0.08};
    const auto point = [&](std::size_t i) {
        SchedOptions opt = chunkedOpts();
        opt.faults.ucp_rate = ucps[i];
        opt.faults.seed = 11;
        const ServeStats st = sched.serve(smallTrace(), opt);
        return std::tuple<Tick, std::uint64_t, std::uint64_t>(
            st.sim_makespan, st.read_retries, st.retry_channel_bytes);
    };
    using Point = std::tuple<Tick, std::uint64_t, std::uint64_t>;
    const auto seq = core::ParallelSweep(1).map<Point>(3, point);
    const auto par = core::ParallelSweep(4).map<Point>(3, point);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i], par[i]) << "point " << i;
    EXPECT_EQ(std::get<1>(seq[0]), 0u); // zero-rate point is clean
    EXPECT_GT(std::get<1>(seq[2]), 0u);
}

} // namespace
} // namespace camllm
