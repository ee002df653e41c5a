/**
 * @file
 * Google-benchmark microbenchmarks for the hot simulator and
 * functional kernels: event queue, channel bus, die pipeline, tiling
 * planner, INT8 GeMV, ECC page codec, bit-flip injection and the
 * fault model's read-retry ladder.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/rng.h"
#include "core/arrivals.h"
#include "core/engine.h"
#include "core/fleet.h"
#include "core/sweep.h"
#include "json_out.h"
#include "core/presets.h"
#include "core/tiling.h"
#include "ecc/bitflip.h"
#include "ecc/outlier_codec.h"
#include "flash/channel_engine.h"
#include "flash/fault.h"
#include "flash/placement.h"
#include "llm/kernels.h"
#include "llm/model_config.h"
#include "llm/tiny_transformer.h"
#include "sim/event_queue.h"

using namespace camllm;

namespace {

/**
 * Schedule @p n events over 997 ticks from the clock, then drain. The
 * queue is built and reserved by the caller, outside the timed span;
 * run() leaves it empty, so one warm queue serves every repetition.
 */
void
scheduleRun(EventQueue &eq, int n, int &sink)
{
    const Tick base = eq.now();
    for (int i = 0; i < n; ++i)
        eq.schedule(base + Tick(i % 997), [&sink] { ++sink; });
    eq.run();
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = int(state.range(0));
    EventQueue eq;
    eq.reserve(std::size_t(n));
    int sink = 0;
    for (auto _ : state) {
        scheduleRun(eq, n, sink);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_FlashChannelRcThroughput(benchmark::State &state)
{
    flash::FlashParams p;
    p.geometry.channels = 1;
    for (auto _ : state) {
        EventQueue eq;
        flash::CompletionRouter router(eq);
        router.connect([](const flash::Completion &) {});
        flash::ChannelEngine ce(eq, p, router);
        flash::RcTileWork tile;
        tile.op_id = 1;
        tile.cores_used = p.geometry.diesPerChannel();
        tile.input_bytes = 256;
        tile.out_bytes_per_core = 64;
        tile.compute_time = p.timing.t_read;
        for (int i = 0; i < 100; ++i)
            ce.submitTile(tile);
        eq.run();
        benchmark::DoNotOptimize(ce.pagesComputed());
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FlashChannelRcThroughput);

void
BM_TilingPlanner(benchmark::State &state)
{
    core::CamConfig cfg = core::presetL();
    core::TilingPlanner planner(cfg.flash,
                                llm::QuantSpec::of(llm::QuantMode::W8A8),
                                cfg.tilingOptions());
    std::uint64_t dim = 4096;
    for (auto _ : state) {
        auto plan = planner.plan(dim, dim);
        benchmark::DoNotOptimize(plan.alpha);
        dim = (dim % 16384) + 257;
    }
}
BENCHMARK(BM_TilingPlanner);

/** Shared d x d GeMV inputs so blocked vs scalar compare like-for-like. */
struct GemvFixture
{
    llm::QTensor w;
    std::vector<float> x, y;

    explicit GemvFixture(std::uint32_t d) : w(d, d, 0.01f), x(d, 0.5f), y(d)
    {
        Rng rng(1);
        for (auto &v : w.data)
            v = std::int8_t(rng.below(255));
    }
};

void
BM_GemvInt8(benchmark::State &state)
{
    const std::uint32_t d = std::uint32_t(state.range(0));
    GemvFixture f(d);
    for (auto _ : state) {
        llm::gemv(f.w, f.x, f.y);
        benchmark::DoNotOptimize(f.y.data());
    }
    state.SetItemsProcessed(state.iterations() * std::uint64_t(d) * d);
}
BENCHMARK(BM_GemvInt8)->Arg(128)->Arg(512);

void
BM_GemvInt8Scalar(benchmark::State &state)
{
    const std::uint32_t d = std::uint32_t(state.range(0));
    GemvFixture f(d);
    for (auto _ : state) {
        llm::gemvScalar(f.w, f.x, f.y);
        benchmark::DoNotOptimize(f.y.data());
    }
    state.SetItemsProcessed(state.iterations() * std::uint64_t(d) * d);
}
BENCHMARK(BM_GemvInt8Scalar)->Arg(128)->Arg(512);

void
BM_EccEncodePage(benchmark::State &state)
{
    ecc::OutlierCodec codec;
    Rng rng(2);
    std::vector<std::int8_t> page(16384);
    for (auto &v : page)
        v = std::int8_t(rng.below(255));
    for (auto _ : state) {
        auto blob = codec.encode(page);
        benchmark::DoNotOptimize(blob.data());
    }
    state.SetBytesProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_EccEncodePage);

void
BM_EccDecodePage(benchmark::State &state)
{
    ecc::OutlierCodec codec;
    Rng rng(3);
    std::vector<std::int8_t> page(16384);
    for (auto &v : page)
        v = std::int8_t(rng.below(255));
    auto blob = codec.encode(page);
    for (auto _ : state) {
        auto copy = page;
        codec.decode(copy, blob, nullptr);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetBytesProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_EccDecodePage);

void
BM_BitFlipInjection(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(1 << 20);
    Rng rng(4);
    for (auto _ : state) {
        auto n = ecc::injectBitFlips(buf, 1e-4, rng);
        benchmark::DoNotOptimize(n);
    }
    state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_BitFlipInjection);

void
BM_TinyTransformerForward(benchmark::State &state)
{
    llm::TinyConfig cfg;
    llm::TinyTransformer model(cfg, 5);
    std::vector<std::uint16_t> toks = {1, 2, 3, 4, 5, 6};
    for (auto _ : state) {
        auto logits = model.forward(toks);
        benchmark::DoNotOptimize(logits.data());
    }
}
BENCHMARK(BM_TinyTransformerForward);

/**
 * Sparse serving-shaped calendar load: request arrivals separated by
 * multi-second Poisson idle gaps (mean 2 simulated seconds, i.e. ~2e9
 * ticks of nothing), each arrival firing a chain of densely packed
 * events (~500-tick exponential gaps). A calendar that walks empty
 * ticks pays for the idle gaps; the calendar heap only compares tick
 * values, so it pays instead for holding every arrival, all scheduled
 * up front (kArrivals entries). Runs on a caller-owned queue (reserved
 * for kArrivals, outside any timed span) from its clock.
 */
struct GapWorkload
{
    static constexpr int kArrivals = 5000;
    static constexpr int kChainLen = 40;
    static constexpr std::uint64_t kTotalEvents =
        std::uint64_t(kArrivals) * (1 + kChainLen);

    EventQueue &eq;
    Rng rng{42};

    Tick expGap(double mean)
    {
        return Tick(-std::log(1.0 - rng.uniform()) * mean) + 1;
    }

    void link(int remaining)
    {
        if (remaining > 0)
            eq.scheduleIn(expGap(500.0),
                          [this, remaining] { link(remaining - 1); });
    }

    /** @return the events executed. */
    std::uint64_t run()
    {
        const std::uint64_t before = eq.executed();
        Tick t = eq.now();
        for (int i = 0; i < kArrivals; ++i) {
            t += expGap(2.0e9);
            eq.schedule(t, [this] { link(kChainLen); });
        }
        eq.run();
        return eq.executed() - before;
    }
};

void
BM_EventQueueArrivalGaps(benchmark::State &state)
{
    EventQueue eq;
    eq.reserve(GapWorkload::kArrivals);
    for (auto _ : state)
        benchmark::DoNotOptimize(GapWorkload{eq}.run());
    state.SetItemsProcessed(state.iterations() *
                            GapWorkload::kTotalEvents);
}
BENCHMARK(BM_EventQueueArrivalGaps);

/**
 * Lockstep load, the die pattern: kOwners owners (presetL's 512 dies)
 * that each reschedule themselves at one shared delay, so every
 * pending tick holds one same-tick run of kOwners events. Runs on a
 * caller-owned queue (reserved for kOwners) from its clock.
 */
struct LockstepWorkload
{
    static constexpr int kOwners = 512;
    static constexpr int kRounds = 200;
    static constexpr std::uint64_t kTotalEvents =
        std::uint64_t(kOwners) * kRounds;
    static constexpr Tick kDelay = 37;

    EventQueue &eq;

    void tick(int remaining)
    {
        if (remaining > 1)
            eq.scheduleIn(kDelay, [this, remaining] { tick(remaining - 1); });
    }

    /** @return the events executed. */
    std::uint64_t run()
    {
        const std::uint64_t before = eq.executed();
        for (int i = 0; i < kOwners; ++i)
            eq.schedule(eq.now(), [this] { tick(kRounds); });
        eq.run();
        return eq.executed() - before;
    }
};

void
BM_EventQueueLockstep(benchmark::State &state)
{
    EventQueue eq;
    eq.reserve(LockstepWorkload::kOwners);
    for (auto _ : state)
        benchmark::DoNotOptimize(LockstepWorkload{eq}.run());
    state.SetItemsProcessed(state.iterations() *
                            LockstepWorkload::kTotalEvents);
}
BENCHMARK(BM_EventQueueLockstep);

/**
 * The read-retry ladder under aged_7b's fault spec (500 h retention,
 * 2000 P/E with a +/-60% plane gradient, 32-bit ECC, wear tracking)
 * on presetL, with Llama2-7B's W8A8 weights striped over the planes.
 * One ladder draw is one fresh read-plane sense; draws sweep the dies
 * channel by channel, as round-robin read dispatch does.
 */
struct FaultLadderWorkload
{
    static constexpr int kDraws = 1 << 16;

    core::CamConfig cfg = core::presetL();
    flash::WeightPlacement place{cfg.flash.geometry};
    flash::FaultModel model{spec(), cfg.flash.geometry.page_bytes,
                            cfg.flash.timing.t_read};

    static flash::FaultSpec
    spec()
    {
        flash::FaultSpec f;
        f.retention_hours = 500.0;
        f.pe_cycles = 2000.0;
        f.wear_tracking = true;
        f.wear_skew = 0.6;
        f.ecc_correctable_bits = 32;
        return f;
    }

    FaultLadderWorkload()
    {
        const flash::FlashGeometry &g = cfg.flash.geometry;
        const flash::FaultSpec &f = model.spec();
        const std::uint64_t bytes = llm::QuantSpec::of(cfg.quant)
                                        .weightBytes(llm::llama2_7b()
                                                         .totalParams());
        place.seedStriped((bytes + g.page_bytes - 1) / g.page_bytes);
        place.seedWear(f.pe_cycles, f.wear_skew, f.retention_hours);
        model.setWearSource(&place);
    }

    /** @return the retries drawn over kDraws ladder draws. */
    std::uint64_t
    run()
    {
        const flash::FlashGeometry &g = cfg.flash.geometry;
        const std::uint32_t plane = g.planes_per_die > 1 ? 1 : 0;
        std::uint64_t retries = 0;
        for (int i = 0; i < kDraws; ++i) {
            const std::uint32_t ch = std::uint32_t(i) % g.channels;
            const std::uint32_t die =
                (std::uint32_t(i) / g.channels) % g.diesPerChannel();
            retries += model.drawRetriesForPlane(ch, die, plane);
        }
        return retries;
    }
};

void
BM_FaultLadder(benchmark::State &state)
{
    FaultLadderWorkload w;
    for (auto _ : state)
        benchmark::DoNotOptimize(w.run());
    state.SetItemsProcessed(state.iterations() * FaultLadderWorkload::kDraws);
}
BENCHMARK(BM_FaultLadder);

/** The first "model name" in /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t v = line.find_first_not_of(" \t:", 10);
        if (v != std::string::npos)
            return line.substr(v);
    }
    return "unknown";
}

/** `git rev-parse HEAD` of the source tree this binary was built
 *  from, or "none" when it is not a git checkout or git fails. */
std::string
gitSha()
{
    const std::string root = CAMLLM_SOURCE_DIR;
    if (!std::filesystem::exists(root + "/.git"))
        return "none";
    const std::string cmd =
        "git -C '" + root + "' rev-parse HEAD 2>/dev/null";
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return "none";
    std::string out;
    char buf[128];
    while (std::fgets(buf, sizeof buf, p))
        out += buf;
    const int rc = pclose(p);
    while (!out.empty() && std::isspace((unsigned char)out.back()))
        out.pop_back();
    return rc == 0 && !out.empty() ? out : "none";
}

/** Best-of-@p reps wall time of one call to @p fn, in seconds. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 1e100;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/**
 * Hand-timed hot-path summaries for BENCH_micro.json: the event
 * kernel, the fault model's retry ladder, GeMV and one engine decode,
 * so the perf trajectory is diffable across commits.
 */
void
emitJson(double bench_wall_s)
{
    bench::BenchJson j;
    j.addString("bench", "bench_micro_kernels");
    j.add("wall_clock_s", bench_wall_s);
    j.addString("host.cpu", cpuModel());
    j.addString("host.nproc",
                std::to_string(std::thread::hardware_concurrency()));
    j.addString("host.compiler", __VERSION__);
    j.addString("host.build_type", CAMLLM_BUILD_TYPE);
    j.addString("host.git_sha", gitSha());

    // One warm queue for the event-kernel keys, built and reserved
    // outside every timed span; each workload leaves it empty.
    EventQueue eq;
    {
        constexpr int kEvents = 100000;
        eq.reserve(kEvents);
        int sink = 0;
        const double s = bestSeconds(5, [&] {
            scheduleRun(eq, kEvents, sink);
            benchmark::DoNotOptimize(sink);
        });
        j.add("event_queue.events", std::uint64_t(kEvents));
        j.add("event_queue.events_per_s", double(kEvents) / s);
    }
    {
        // Arrival-gap shape: multi-second idle gaps between dense
        // event chains.
        const double s = bestSeconds(3, [&] {
            if (GapWorkload{eq}.run() != GapWorkload::kTotalEvents)
                std::fprintf(stderr, "gap workload event mismatch\n");
        });
        j.add("event_queue.gap_events", GapWorkload::kTotalEvents);
        j.add("event_queue.gap_events_per_s",
              double(GapWorkload::kTotalEvents) / s);
    }
    {
        // Lockstep shape: every event joins its tick's same-tick run.
        const double s = bestSeconds(5, [&] {
            if (LockstepWorkload{eq}.run() != LockstepWorkload::kTotalEvents)
                std::fprintf(stderr, "lockstep workload event mismatch\n");
        });
        j.add("event_queue.lockstep_events_per_s",
              double(LockstepWorkload::kTotalEvents) / s);
    }
    {
        FaultLadderWorkload w;
        const double s = bestSeconds(5, [&] {
            benchmark::DoNotOptimize(w.run());
        });
        j.add("fault.ladder_draws_per_s",
              double(FaultLadderWorkload::kDraws) / s);
    }
    {
        // Fleet-scale events/sec: N independent serving replicas on
        // the worker pool (deterministic sim results, host-timed
        // throughput). Sized to stay inside the CI smoke budget —
        // per-event cost, not run length, is what the key tracks.
        const core::Scheduler sched(core::presetS(), llm::opt6_7b());
        core::SchedOptions opt;
        opt.max_batch = 4;
        const core::FleetSweep fleet;
        const core::FleetStats fs =
            fleet.run(4, 2024, [&](std::size_t, std::uint64_t seed) {
                return sched.serve(
                    core::ArrivalTrace::poisson(500.0, 4, seed,
                                                {{32, 2}, {48, 2}}),
                    opt);
            });
        j.add("fleet.replicas", std::uint64_t(fs.replicas));
        j.add("fleet.threads", std::uint64_t(fleet.threads()));
        j.add("fleet.sim_events", fs.sim_events);
        j.add("fleet.events_per_s", fs.events_per_s);
        j.add("fleet.goodput_tokens_per_s", fs.goodput_tokens_per_s);
    }
    {
        constexpr std::uint32_t d = 512;
        GemvFixture f(d);
        const double blocked = bestSeconds(20, [&] {
            llm::gemv(f.w, f.x, f.y);
            benchmark::DoNotOptimize(f.y.data());
        });
        const double scalar = bestSeconds(20, [&] {
            llm::gemvScalar(f.w, f.x, f.y);
            benchmark::DoNotOptimize(f.y.data());
        });
        const double elems = double(d) * d;
        j.add("gemv512.blocked_elems_per_s", elems / blocked);
        j.add("gemv512.scalar_elems_per_s", elems / scalar);
        j.add("gemv512.speedup_vs_scalar", scalar / blocked);
    }
    {
        const auto stats =
            core::CambriconEngine(core::presetS(), llm::opt6_7b())
                .decodeToken();
        j.add("decode.preset_s_opt6_7b_tokens_per_s",
              stats.tokens_per_s);
        j.add("decode.simulated_events_token_time_ticks",
              std::uint64_t(stats.token_time));
    }
    {
        // Fig 13-shaped sweep (one preset, every model): sequential
        // vs ParallelSweep, so multi-core machines record the pool's
        // wall-clock win and single-core ones record ~1x honestly.
        auto models = llm::optFamily();
        for (const auto &m : llm::llamaFamily())
            models.push_back(m);
        const auto decodeAll = [&](unsigned threads) {
            core::ParallelSweep sweep(threads);
            const auto out = sweep.map<double>(
                models.size(), [&](std::size_t i) {
                    return core::CambriconEngine(core::presetS(),
                                                 models[i])
                        .decodeToken()
                        .tokens_per_s;
                });
            benchmark::DoNotOptimize(out.data());
        };
        const unsigned hw = core::ParallelSweep::hardwareThreads();
        const double seq_s = bestSeconds(1, [&] { decodeAll(1); });
        const double par_s = bestSeconds(1, [&] { decodeAll(hw); });
        j.add("sweep.jobs", std::uint64_t(models.size()));
        j.add("sweep.threads", std::uint64_t(hw));
        j.add("sweep.sequential_s", seq_s);
        j.add("sweep.parallel_s", par_s);
        j.add("sweep.speedup", seq_s / par_s);
    }

    const char *path = "BENCH_micro.json";
    if (j.writeTo(path))
        std::printf("wrote %s\n", path);
    else
        std::fprintf(stderr, "failed to write %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    const auto wall0 = std::chrono::steady_clock::now();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();
    emitJson(wall_s);
    return 0;
}
