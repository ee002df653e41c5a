/**
 * @file
 * Serving-grade benchmark of the unified scheduler: the default 70B
 * preset (Cam-LLM-L, Llama2-70B) measured three ways.
 *
 *  1. Continuous-batching decode throughput at batch limits 1..16
 *     (the PR 2 workload, unchanged keys) — and the same sweep with
 *     the shared-NPU occupancy model on, so the contention delta at
 *     batch 8-16 is recorded in the perf trajectory.
 *  2. A fixed arrival-driven SLO scenario (identical in --smoke and
 *     full runs; `slo_smoke.*` keys) — Poisson arrivals with real
 *     prompts served under FCFS whole-prompt prefill vs Sarathi-style
 *     chunked interleaving, reporting p50/p95/p99 TTFT and TBT.
 *  3. Full runs only: an arrival-rate sweep and a prefill chunk-size
 *     sweep showing how the SLO percentiles respond to load and to
 *     the chunk budget.
 *
 *  4. A KV capacity sweep (`--kv-sweep` for just this section): the
 *     same fixed arrival scenario served under shrinking paged-KV
 *     budgets, recording SLO percentiles, preemption/eviction counts
 *     and recompute volume per budget point (`kv_sweep.*` keys; the
 *     50%-budget point also runs in --smoke so CI diffs it). Two
 *     KV-reuse axes ride on the same scenario (smoke included, so CI
 *     diffs their keys in both directions): the 50% point again with
 *     swap-to-flash + partial eviction armed (`kv_sweep.swap50.*`;
 *     self-check: p95 TTFT with swap <= recompute-only + 2%
 *     resonance headroom), and a shared-system-prompt variant of the
 *     trace served with prefix sharing off/on (`kv_sweep.share_*`;
 *     self-checks: the prefix fields are inert with the knob off —
 *     bit-identical replay — and users-per-GB strictly rises with it
 *     on).
 *
 *  5. A fault sweep (`--fault-sweep` for just this section): the SLO
 *     smoke scenario served under a grid of uncorrectable-page rates
 *     x channel-loss scenarios (healthy / 8x slowdown window /
 *     permanent channel death), with per-request deadlines and SLO
 *     shedding armed, recording goodput, shed/timeout counts, retry
 *     and remap traffic and TTFT percentiles per point
 *     (`fault_sweep.*` keys; the worst point also runs in --smoke).
 *     The zero-fault point self-checks bit-identical against a run
 *     without any resilience knob armed.
 *
 *  6. A reliability co-design sweep (`--reliability-sweep` for just
 *     this section): the same scenario on an aged, unevenly worn
 *     device with per-plane wear tracking armed, gridded over wear
 *     policy (bump vs least-worn) x ECC correction strength x
 *     retention-refresh rate. Records goodput, retry volume, TBT/TTFT
 *     tails, the per-plane P/E spread and scrub traffic per point
 *     plus the decoder area/power each ECC strength costs
 *     (`reliability_sweep.*` keys; one harsh corner also runs in
 *     --smoke). Full runs self-check that retries fall monotonically
 *     with ECC strength, that wear leveling shrinks the P/E spread
 *     wherever refresh programs flow, and that the co-design knobs at
 *     inert values leave a PR 6-style fault timeline bit-identical.
 *
 * Emits BENCH_serving.json.
 *
 *  7. A fleet sweep (`--fleet-sweep` for just this section; full runs
 *     only, skipped in --smoke): N independent device replicas, each
 *     serving its own seeded Poisson trace, run across the worker
 *     pool by FleetSweep and merged index-ordered (`fleet_sweep.*`
 *     keys). Self-checks that the merged result is bit-identical on
 *     one worker thread vs the full pool and that each replica's
 *     result is independent of the fleet size.
 *
 * Usage: bench_serving [--smoke] [--arrivals] [--kv-sweep]
 *                      [--fault-sweep] [--reliability-sweep]
 *                      [--fleet-sweep]
 *   --smoke       CI subset: batches {1,4} and contended batch 4 over
 *                 the full run's 16 requests, the SLO smoke scenario,
 *                 one KV budget point, one fault point and one
 *                 reliability point. Every key it writes except
 *                 wall_clock_s equals the full run's.
 *   --arrivals    arrival-driven sections only (skips batch sweeps).
 *   --kv-sweep    KV capacity sweep only.
 *   --fault-sweep fault sweep only.
 *   --reliability-sweep reliability co-design sweep only.
 *   --fleet-sweep fleet sweep only.
 */

#include <array>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/area_model.h"
#include "core/arrivals.h"
#include "core/fleet.h"
#include "core/scheduler.h"
#include "core/sweep.h"
#include "flash/params.h"
#include "flash/placement.h"
#include "json_out.h"

using namespace camllm;

namespace {

/** Decode-only requests (warm KV, no prompt), all arriving at 0. */
std::vector<core::ServeRequest>
mixedWorkload(std::size_t n_requests, std::uint32_t decode_tokens)
{
    // Long-context serving mix: attention DRAM stalls leave channel
    // bubbles a single stream cannot fill, which is exactly what
    // continuous batching recovers.
    const std::uint32_t ctx[] = {2048, 4096, 8192, 16384};
    std::vector<core::ServeRequest> reqs;
    reqs.reserve(n_requests);
    for (std::size_t i = 0; i < n_requests; ++i)
        reqs.push_back({0, ctx[i % 4], decode_tokens, 0});
    return reqs;
}

void
addLatency(bench::BenchJson &json, const std::string &prefix,
           const core::LatencySummary &s)
{
    json.add(prefix + ".p50_ms", s.p50_ms);
    json.add(prefix + ".p95_ms", s.p95_ms);
    json.add(prefix + ".p99_ms", s.p99_ms);
    json.add(prefix + ".mean_ms", s.mean_ms);
}

void
sloRow(Table &t, const std::string &label, const core::ServeStats &s)
{
    t.row({label, Table::fmt(s.ttft.p50_ms, 0),
           Table::fmt(s.ttft.p95_ms, 0), Table::fmt(s.ttft.p99_ms, 0),
           Table::fmt(s.tbt.p50_ms, 0), Table::fmt(s.tbt.p95_ms, 0),
           Table::fmt(s.tbt.p99_ms, 0),
           Table::fmt(s.finite_run_tokens_per_s, 2),
           Table::fmtPercent(s.npu_array_util)});
}

void
addSlo(bench::BenchJson &json, const std::string &prefix,
       const core::ServeStats &s)
{
    addLatency(json, prefix + ".ttft", s.ttft);
    addLatency(json, prefix + ".tbt", s.tbt);
    json.add(prefix + ".finite_run_tokens_per_s",
             s.finite_run_tokens_per_s);
    json.add(prefix + ".npu_array_util", s.npu_array_util);
}

void
addKv(bench::BenchJson &json, const std::string &prefix,
      const core::ServeStats &s)
{
    addSlo(json, prefix, s);
    json.add(prefix + ".preemptions", std::uint64_t(s.preemptions));
    json.add(prefix + ".recompute_tokens", s.recompute_tokens);
    json.add(prefix + ".kv_blocks_total", s.kv_blocks_total);
    json.add(prefix + ".kv_blocks_high_water",
             s.kv_blocks_high_water);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false, arrivals_only = false, kv_only = false,
         fault_only = false, rel_only = false, fleet_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--arrivals") == 0)
            arrivals_only = true;
        else if (std::strcmp(argv[i], "--kv-sweep") == 0)
            kv_only = true;
        else if (std::strcmp(argv[i], "--fault-sweep") == 0)
            fault_only = true;
        else if (std::strcmp(argv[i], "--reliability-sweep") == 0)
            rel_only = true;
        else if (std::strcmp(argv[i], "--fleet-sweep") == 0)
            fleet_only = true;
    }
    const auto wall0 = std::chrono::steady_clock::now();
    bench::banner("serving: continuous batching, NPU contention, "
                  "arrival-driven SLOs");

    const core::CamConfig cfg = core::presetL();
    const llm::ModelConfig model = llm::llama2_70b();
    const core::Scheduler sched(cfg, model);
    core::ParallelSweep sweep;

    bench::BenchJson json;
    json.addString("bench", "bench_serving");
    json.addString("preset", cfg.name);
    json.addString("model", model.name);

    if (!arrivals_only && !kv_only && !fault_only && !rel_only &&
        !fleet_only) {
        const std::vector<core::ServeRequest> reqs =
            mixedWorkload(16, 1);
        const std::vector<std::uint32_t> batches =
            smoke ? std::vector<std::uint32_t>{1, 4}
                  : std::vector<std::uint32_t>{1, 2, 4, 8, 16};
        json.add("requests", std::uint64_t(reqs.size()));
        std::cout << "preset " << cfg.name << ", model " << model.name
                  << ", " << reqs.size()
                  << " requests, contexts 2K/4K/8K/16K\n";

        // Every batch point is an independent co-simulation; fan them
        // out over the sweep pool (results stay index-ordered). The
        // default options are decode-first FCFS with a free NPU.
        const auto stats = sweep.map<core::ServeStats>(
            batches.size(), [&](std::size_t i) {
                core::SchedOptions opt;
                opt.max_batch = batches[i];
                return sched.serve(reqs, opt);
            });

        // The same sweep against a contended NPU: systolic-array and
        // SFU time serialize across streams instead of overlapping
        // for free. Smoke runs one point to bound CI cost.
        const std::vector<std::uint32_t> nbatches =
            smoke ? std::vector<std::uint32_t>{4} : batches;
        const auto nstats = sweep.map<core::ServeStats>(
            nbatches.size(), [&](std::size_t i) {
                core::SchedOptions opt;
                opt.max_batch = nbatches[i];
                opt.npu_contention = true;
                return sched.serve(reqs, opt);
            });

        Table t("Serving throughput vs batch limit (free vs "
                "contended NPU)");
        t.header({"batch", "agg tok/s", "finite-run tok/s",
                  "chan util", "fairness", "npu agg tok/s",
                  "npu array util"});
        for (std::size_t i = 0; i < batches.size(); ++i) {
            const core::ServeStats &b = stats[i];
            std::size_t ni = nbatches.size();
            for (std::size_t j = 0; j < nbatches.size(); ++j)
                if (nbatches[j] == batches[i])
                    ni = j;
            t.row({Table::fmtInt(batches[i]),
                   Table::fmt(b.aggregate_tokens_per_s, 3),
                   Table::fmt(b.finite_run_tokens_per_s, 3),
                   Table::fmtPercent(b.avg_channel_util),
                   Table::fmt(b.fairness_jain, 3),
                   ni < nbatches.size()
                       ? Table::fmt(
                             nstats[ni].aggregate_tokens_per_s, 3)
                       : "-",
                   ni < nbatches.size()
                       ? Table::fmtPercent(nstats[ni].npu_array_util)
                       : "-"});
            const std::string p =
                "batch" + std::to_string(batches[i]);
            json.add(p + ".aggregate_tokens_per_s",
                     b.aggregate_tokens_per_s);
            json.add(p + ".finite_run_tokens_per_s",
                     b.finite_run_tokens_per_s);
            json.add(p + ".avg_channel_util", b.avg_channel_util);
            json.add(p + ".fairness_jain", b.fairness_jain);
            json.add(p + ".sim_makespan_ms",
                     double(b.sim_makespan) / 1e6);
            json.add(p + ".extrapolation_factor",
                     b.extrapolation_factor);
        }
        for (std::size_t j = 0; j < nbatches.size(); ++j) {
            const std::string p =
                "batch" + std::to_string(nbatches[j]) + ".npu";
            json.add(p + ".aggregate_tokens_per_s",
                     nstats[j].aggregate_tokens_per_s);
            json.add(p + ".finite_run_tokens_per_s",
                     nstats[j].finite_run_tokens_per_s);
            json.add(p + ".array_util", nstats[j].npu_array_util);
        }
        t.print(std::cout);

        // Acceptance self-check: aggregate throughput must rise
        // monotonically from batch 1 through 8.
        bool monotone = true;
        for (std::size_t i = 1;
             i < batches.size() && batches[i] <= 8; ++i)
            monotone = monotone &&
                       stats[i].aggregate_tokens_per_s >
                           stats[i - 1].aggregate_tokens_per_s;
        std::cout << "\nmonotone aggregate 1->8: "
                  << (monotone ? "yes" : "NO") << "\n";
        json.add("monotone_1_to_8", std::uint64_t(monotone ? 1 : 0));

        // Contention must not speed the device up materially.
        // (Serializing array time can decorrelate the streams' layer
        // phases and nudge the mean rate up a fraction of a percent —
        // streams admitted together otherwise contend on the DRAM in
        // lockstep — so the check carries 2% headroom.)
        bool contention_sane = true;
        for (std::size_t j = 0; j < nbatches.size(); ++j) {
            std::size_t bi = batches.size();
            for (std::size_t i = 0; i < batches.size(); ++i)
                if (batches[i] == nbatches[j])
                    bi = i;
            if (bi < batches.size())
                contention_sane =
                    contention_sane &&
                    nstats[j].aggregate_tokens_per_s <=
                        stats[bi].aggregate_tokens_per_s * 1.02;
        }
        std::cout << "contended <= free(+2%) at every batch: "
                  << (contention_sane ? "yes" : "NO") << "\n";
        json.add("npu_contention_sane",
                 std::uint64_t(contention_sane ? 1 : 0));

        // Per-request service detail at the largest batch.
        const core::ServeStats &big = stats.back();
        Table d("Per-request service at batch " +
                std::to_string(batches.back()));
        d.header({"req", "context", "tokens", "admit (ms)",
                  "finish (ms)", "mean tok (ms)", "tok/s"});
        for (const core::ServeRequestStats &r : big.requests)
            d.row({Table::fmtInt(r.id), Table::fmtInt(r.context),
                   Table::fmtInt(r.decode_tokens),
                   Table::fmt(double(r.admit_tick) / 1e6, 2),
                   Table::fmt(double(r.finish_tick) / 1e6, 2),
                   Table::fmt(double(r.mean_token_time) / 1e6, 1),
                   Table::fmt(r.tokens_per_s, 3)});
        d.print(std::cout);
    }

    // --- arrival-driven SLO scenarios -----------------------------------
    // Fixed smoke scenario, identical in every mode so its percentile
    // keys diff cleanly across commits: 6 Poisson arrivals with real
    // prompts, batch 4, contended NPU, FCFS vs chunked prefill.
    // Shapes and rates are tuned to the modeled hardware: a 2 TOPS
    // NPU prefills this 70B model at ~70 ms (extrapolated) per prompt
    // token, so a device serves roughly half a request per simulated
    // second — 0.25/0.5/1.0 req/s spans underload to saturation.
    const std::vector<core::RequestShape> shapes = {
        {512, 2}, {1024, 1}, {256, 3}};
    const core::ArrivalTrace smoke_trace =
        core::ArrivalTrace::poisson(0.5, 6, 7, shapes);

    const auto serveTrace = [&](const core::ArrivalTrace &trace,
                                core::SchedPolicy policy,
                                std::uint32_t chunk,
                                std::uint32_t max_batch) {
        core::SchedOptions opt;
        opt.max_batch = max_batch;
        opt.policy = policy;
        opt.prefill_chunk = chunk;
        opt.npu_contention = true;
        return sched.serve(trace, opt);
    };

    if (!kv_only && !fault_only && !rel_only && !fleet_only) {
        const auto pair = sweep.map<core::ServeStats>(
            2, [&](std::size_t i) {
                return i == 0
                           ? serveTrace(
                                 smoke_trace,
                                 core::SchedPolicy::DecodeFirstFcfs,
                                 0u, 4)
                           : serveTrace(
                                 smoke_trace,
                                 core::SchedPolicy::ChunkedInterleave,
                                 256u, 4);
            });
        Table t("SLO smoke scenario (6 Poisson arrivals @ 0.5 req/s, "
                "batch 4, contended NPU)");
        t.header({"policy", "TTFT p50", "p95", "p99", "TBT p50",
                  "p95", "p99", "tok/s", "array util"});
        sloRow(t, "fcfs whole-prompt", pair[0]);
        sloRow(t, "chunked 256", pair[1]);
        t.print(std::cout);
        addSlo(json, "slo_smoke.fcfs", pair[0]);
        addSlo(json, "slo_smoke.chunked256", pair[1]);
    }

    if (!smoke && !kv_only && !fault_only && !rel_only &&
        !fleet_only) {
        // Arrival-rate sweep: the capacity-planning view. Indices map
        // to (rate x policy) pairs; results stay deterministic and
        // index-ordered under the sweep pool.
        const std::vector<double> rates = {0.25, 0.5, 1.0};
        const auto rstats = sweep.map<core::ServeStats>(
            rates.size() * 2, [&](std::size_t i) {
                const core::ArrivalTrace trace =
                    core::ArrivalTrace::poisson(rates[i / 2], 12, 11,
                                                shapes);
                return (i % 2) == 0
                           ? serveTrace(
                                 trace,
                                 core::SchedPolicy::DecodeFirstFcfs,
                                 0u, 8)
                           : serveTrace(
                                 trace,
                                 core::SchedPolicy::ChunkedInterleave,
                                 256u, 8);
            });
        Table t("SLO vs arrival rate (12 requests, batch 8, "
                "contended NPU)");
        t.header({"rate x policy", "TTFT p50", "p95", "p99",
                  "TBT p50", "p95", "p99", "tok/s", "array util"});
        for (std::size_t i = 0; i < rstats.size(); ++i) {
            const std::string label =
                Table::fmt(rates[i / 2], 2) + " req/s " +
                ((i % 2) == 0 ? "fcfs" : "chunked");
            sloRow(t, label, rstats[i]);
            const std::string p =
                "arrivals.rate" +
                std::to_string(int(rates[i / 2] * 100)) +
                ((i % 2) == 0 ? ".fcfs" : ".chunked256");
            addSlo(json, p, rstats[i]);
        }
        t.print(std::cout);

        // Chunk-size knob: TTFT/TBT percentiles must respond to the
        // prefill budget (smaller chunks trade first-token latency
        // for decode interactivity under load).
        const std::vector<std::uint32_t> chunks = {128, 512, 2048};
        const core::ArrivalTrace ktrace =
            core::ArrivalTrace::poisson(0.5, 12, 11, shapes);
        const auto kstats = sweep.map<core::ServeStats>(
            chunks.size(), [&](std::size_t i) {
                return serveTrace(
                    ktrace, core::SchedPolicy::ChunkedInterleave,
                    chunks[i], 8);
            });
        Table t2("SLO vs prefill chunk budget (0.5 req/s, batch 8)");
        t2.header({"chunk", "TTFT p50", "p95", "p99", "TBT p50",
                   "p95", "p99", "tok/s", "array util"});
        for (std::size_t i = 0; i < chunks.size(); ++i) {
            sloRow(t2, Table::fmtInt(chunks[i]), kstats[i]);
            addSlo(json,
                   "arrivals.chunk" + std::to_string(chunks[i]),
                   kstats[i]);
        }
        t2.print(std::cout);
    }

    // --- KV capacity sweep ----------------------------------------------
    // The same fixed arrival scenario under shrinking paged-KV
    // budgets (block tables of 64 tokens, budgets as a fraction of
    // the trace's total KV demand). Unbounded is the no-wall
    // reference; 100% holds every request's final KV at once; below
    // that the scheduler queues admissions, preempts the
    // latest-arrived running request and recomputes evicted KV. The
    // 50% point runs identically in --smoke so CI diffs its keys.
    if (!fault_only && !rel_only && !fleet_only) {
        const std::uint32_t block_tokens = 64;
        const core::ArrivalTrace kv_trace =
            core::ArrivalTrace::poisson(0.5, 6, 13, shapes);
        const std::uint64_t token_kv_bytes =
            std::uint64_t(model.kvDim()) *
            (llm::QuantSpec::of(cfg.quant).act_bits / 8) *
            model.n_layers;
        std::uint64_t demand_blocks = 0;
        for (const core::ServeRequest &r : kv_trace.requests())
            demand_blocks += (std::uint64_t(r.context) + r.prompt +
                              r.decode_tokens + block_tokens - 1) /
                             block_tokens;

        // (label, percent of total demand; 0 = unbounded)
        const std::vector<std::pair<std::string, std::uint64_t>>
            points = smoke
                         ? std::vector<
                               std::pair<std::string, std::uint64_t>>{
                               {"unbounded", 0}, {"budget50", 50}}
                         : std::vector<
                               std::pair<std::string, std::uint64_t>>{
                               {"unbounded", 0},
                               {"budget100", 100},
                               {"budget75", 75},
                               {"budget50", 50}};
        const auto kstats = sweep.map<core::ServeStats>(
            points.size(), [&](std::size_t i) {
                core::SchedOptions opt;
                opt.max_batch = 4;
                opt.policy = core::SchedPolicy::ChunkedInterleave;
                opt.prefill_chunk = 256;
                opt.npu_contention = true;
                opt.kv_block_tokens = block_tokens;
                opt.kv_budget_bytes =
                    points[i].second == 0
                        ? 0
                        : demand_blocks * points[i].second / 100 *
                              block_tokens * token_kv_bytes;
                return sched.serve(kv_trace, opt);
            });

        Table t("SLO vs KV budget (6 Poisson arrivals @ 0.5 req/s, "
                "batch 4, 64-token blocks, chunked 256)");
        t.header({"budget", "TTFT p50", "p95", "p99", "TBT p95",
                  "tok/s", "preempt", "recompute tok", "KV high/total"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const core::ServeStats &s = kstats[i];
            t.row({points[i].first, Table::fmt(s.ttft.p50_ms, 0),
                   Table::fmt(s.ttft.p95_ms, 0),
                   Table::fmt(s.ttft.p99_ms, 0),
                   Table::fmt(s.tbt.p95_ms, 0),
                   Table::fmt(s.finite_run_tokens_per_s, 2),
                   Table::fmtInt(s.preemptions),
                   Table::fmtInt(std::uint32_t(s.recompute_tokens)),
                   Table::fmtInt(std::uint32_t(
                       s.kv_blocks_high_water)) +
                       "/" +
                       (s.kv_blocks_total == 0
                            ? std::string("inf")
                            : Table::fmtInt(std::uint32_t(
                                  s.kv_blocks_total)))});
            addKv(json, "kv_sweep." + points[i].first, kstats[i]);
        }
        t.print(std::cout);

        // Self-checks: the unbounded reference never preempts, and a
        // bounded pool never exceeds its capacity.
        bool kv_sane = kstats[0].preemptions == 0;
        for (std::size_t i = 1; i < points.size(); ++i)
            kv_sane = kv_sane && (kstats[i].kv_blocks_total == 0 ||
                                  kstats[i].kv_blocks_high_water <=
                                      kstats[i].kv_blocks_total);
        std::cout << "kv pool sane (no unbounded preemption, high "
                     "water <= capacity): "
                  << (kv_sane ? "yes" : "NO") << "\n";
        json.add("kv_sweep.sane", std::uint64_t(kv_sane ? 1 : 0));

        // --- KV reuse: swap-to-flash + partial eviction -----------------
        // The 50% point again with the reuse knobs armed: evictions
        // keep warm head blocks and shed tails to the flash KV region
        // (cost model and quota permitting) instead of recomputing
        // them on resume. The last sweep point above is the
        // recompute-only 50% reference in both smoke and full runs.
        const core::ServeStats &recompute50 = kstats.back();
        core::SchedOptions swap_opt;
        swap_opt.max_batch = 4;
        swap_opt.policy = core::SchedPolicy::ChunkedInterleave;
        swap_opt.prefill_chunk = 256;
        swap_opt.npu_contention = true;
        swap_opt.kv_block_tokens = block_tokens;
        swap_opt.kv_budget_bytes = demand_blocks * 50 / 100 *
                                   block_tokens * token_kv_bytes;
        swap_opt.kv_swap = true;
        swap_opt.kv_partial_evict = true;
        const core::ServeStats swap50 =
            sched.serve(kv_trace, swap_opt);

        Table ts("KV reuse at 50% budget: recompute-only vs "
                 "swap-to-flash + partial eviction");
        ts.header({"mode", "TTFT p95", "p99", "TBT p95", "tok/s",
                   "preempt", "partial", "recompute tok",
                   "swap out/in/refused", "swap MB"});
        const auto reuseRow = [&](const std::string &label,
                                  const core::ServeStats &s) {
            ts.row({label, Table::fmt(s.ttft.p95_ms, 0),
                    Table::fmt(s.ttft.p99_ms, 0),
                    Table::fmt(s.tbt.p95_ms, 0),
                    Table::fmt(s.finite_run_tokens_per_s, 2),
                    Table::fmtInt(s.preemptions),
                    Table::fmtInt(s.partial_evictions),
                    Table::fmtInt(std::uint32_t(s.recompute_tokens)),
                    Table::fmtInt(std::uint32_t(s.swap_out_blocks)) +
                        "/" +
                        Table::fmtInt(
                            std::uint32_t(s.swap_in_blocks)) +
                        "/" +
                        Table::fmtInt(
                            std::uint32_t(s.swap_refused_blocks)),
                    Table::fmt(double(s.kv_swap_channel_bytes) / 1e6,
                               1)});
        };
        reuseRow("recompute-only", recompute50);
        reuseRow("swap+partial", swap50);
        ts.print(std::cout);

        addKv(json, "kv_sweep.swap50", swap50);
        json.add("kv_sweep.swap50.partial_evictions",
                 std::uint64_t(swap50.partial_evictions));
        json.add("kv_sweep.swap50.swap_out_blocks",
                 swap50.swap_out_blocks);
        json.add("kv_sweep.swap50.swap_in_blocks",
                 swap50.swap_in_blocks);
        json.add("kv_sweep.swap50.swap_refused_blocks",
                 swap50.swap_refused_blocks);
        json.add("kv_sweep.swap50.kv_swap_channel_mb",
                 double(swap50.kv_swap_channel_bytes) / 1e6);

        // Acceptance self-check: streaming KV back over the channels
        // must not be slower at the first-token tail than burning the
        // NPU to recompute it — with the 2% resonance headroom every
        // cross-config latency check in this bench carries.
        const bool swap_ok =
            swap50.ttft.p95_ms <= recompute50.ttft.p95_ms * 1.02;
        std::cout << "swap p95 TTFT <= recompute-only (+2%): "
                  << (swap_ok ? "yes" : "NO") << "\n";
        json.add("kv_sweep.swap_p95_within",
                 std::uint64_t(swap_ok ? 1 : 0));

        // --- KV reuse: prefix sharing -----------------------------------
        // The same trace where every request leads with one shared
        // 256-token system prompt, served at the 100% budget with
        // sharing off (tagged and untagged — the fields must be
        // inert) and on. Capacity-per-GB is measured as users per GB
        // of KV actually allocated: sharing maps cached prefix blocks
        // into later tables instead of allocating fresh ones.
        const std::uint32_t shared_tokens = 256;
        const core::ArrivalTrace shared_trace =
            kv_trace.withSharedPrefix(1, shared_tokens);
        const auto share = sweep.map<core::ServeStats>(
            3, [&](std::size_t i) {
                core::SchedOptions opt;
                opt.max_batch = 4;
                opt.policy = core::SchedPolicy::ChunkedInterleave;
                opt.prefill_chunk = 256;
                opt.npu_contention = true;
                opt.kv_block_tokens = block_tokens;
                opt.kv_budget_bytes = demand_blocks * block_tokens *
                                      token_kv_bytes;
                opt.kv_prefix_sharing = i == 2;
                return sched.serve(
                    i == 0 ? kv_trace : shared_trace, opt);
            });
        const core::ServeStats &share_off = share[0];
        const core::ServeStats &share_on = share[2];

        const double block_gb = double(block_tokens) *
                                double(token_kv_bytes) / 1e9;
        const auto usersPerGb = [&](const core::ServeStats &s) {
            return double(s.requests.size()) /
                   (double(s.kv_block_allocs) * block_gb);
        };
        Table tp("Prefix sharing (6 requests, one shared 256-token "
                 "system prompt, 100% budget)");
        tp.header({"mode", "TTFT p95", "tok/s", "block allocs",
                   "KV high water", "prefix hits", "users/GB"});
        const auto shareRow = [&](const std::string &label,
                                  const core::ServeStats &s) {
            tp.row({label, Table::fmt(s.ttft.p95_ms, 0),
                    Table::fmt(s.finite_run_tokens_per_s, 2),
                    Table::fmtInt(std::uint32_t(s.kv_block_allocs)),
                    Table::fmtInt(
                        std::uint32_t(s.kv_blocks_high_water)),
                    Table::fmtInt(
                        std::uint32_t(s.prefix_hit_blocks)),
                    Table::fmt(usersPerGb(s), 2)});
        };
        shareRow("sharing off", share_off);
        shareRow("sharing on", share_on);
        tp.print(std::cout);

        addKv(json, "kv_sweep.share_off", share_off);
        addKv(json, "kv_sweep.share_on", share_on);
        json.add("kv_sweep.share_on.prefix_hit_blocks",
                 share_on.prefix_hit_blocks);
        json.add("kv_sweep.share_on.prefix_hit_tokens",
                 share_on.prefix_hit_tokens);
        json.add("kv_sweep.share_on.prefix_inserted_blocks",
                 share_on.prefix_inserted_blocks);
        json.add("kv_sweep.share_on.prefix_dropped_blocks",
                 share_on.prefix_dropped_blocks);
        json.add("kv_sweep.share_off.kv_block_allocs",
                 share_off.kv_block_allocs);
        json.add("kv_sweep.share_on.kv_block_allocs",
                 share_on.kv_block_allocs);
        json.add("kv_sweep.share.users_per_gb_off",
                 usersPerGb(share_off));
        json.add("kv_sweep.share.users_per_gb_on",
                 usersPerGb(share_on));

        // Acceptance self-check 1: with the knob off the prefix tags
        // must be dead weight — the tagged trace replays the untagged
        // serve bit-identically.
        bool share_inert =
            share[0].requests.size() == share[1].requests.size();
        for (std::size_t i = 0;
             share_inert && i < share[0].requests.size(); ++i)
            share_inert =
                share[0].requests[i].finish_tick ==
                    share[1].requests[i].finish_tick &&
                share[0].requests[i].total_token_time ==
                    share[1].requests[i].total_token_time &&
                share[0].requests[i].prefill_time ==
                    share[1].requests[i].prefill_time;
        std::cout << "prefix tags inert with sharing off "
                     "(bit-exact): "
                  << (share_inert ? "yes" : "NO") << "\n";
        json.add("kv_sweep.share_inert_bit_exact",
                 std::uint64_t(share_inert ? 1 : 0));

        // Acceptance self-check 2: sharing must strictly raise the
        // users served per GB of allocated KV (i.e. strictly shrink
        // fresh block allocations), and do it through real hits.
        const bool share_gain =
            share_on.prefix_hit_blocks > 0 &&
            share_on.kv_block_allocs < share_off.kv_block_allocs;
        std::cout << "users-per-GB strictly rises under the shared "
                     "prompt: "
                  << (share_gain ? "yes" : "NO") << "\n";
        json.add("kv_sweep.share_capacity_rises",
                 std::uint64_t(share_gain ? 1 : 0));
    }

    // --- fault sweep ----------------------------------------------------
    // The SLO smoke scenario under a grid of uncorrectable-page rates
    // (0 / 1% / 5%, NAND read-retry ladders) x channel-loss scenarios
    // (healthy / channel 0 at 1/8 rate for 10 simulated seconds /
    // channel 0 dead mid-run with weight remap), served with a
    // per-request deadline and SLO shedding armed so the resilience
    // paths run under fault load. Goodput counts only completed
    // requests' tokens — the metric faults degrade. The worst point
    // runs identically in --smoke so CI diffs its keys; full runs
    // self-check the zero-fault point bit-identical against a serve
    // with no resilience knob armed and goodput/TTFT monotone along
    // the fault-rate axis.
    if (!kv_only && !rel_only && !fleet_only) {
        struct UcpPoint
        {
            const char *label;
            double ucp;
        };
        struct LossPoint
        {
            const char *label;
            int kind; // 0 none, 1 slowdown window, 2 offline
        };
        const UcpPoint ucps[] = {
            {"ucp0", 0.0}, {"ucp1", 0.01}, {"ucp5", 0.05}};
        const LossPoint losses[] = {
            {"none", 0}, {"slow", 1}, {"offline", 2}};

        const auto faultOpts = [&](double ucp, int loss) {
            core::SchedOptions opt;
            opt.max_batch = 4;
            opt.policy = core::SchedPolicy::ChunkedInterleave;
            opt.prefill_chunk = 256;
            // Contention off: serializing the shared array couples the
            // streams' layer phases, and retry jitter can *decorrelate*
            // them — heavy faults then land fewer arbiter collisions
            // and the contended makespan improves (same resonance the
            // batch sweep's npu_contention_sane check allows 2% for).
            // The fault axis is only interpretable uncontended.
            opt.npu_contention = false;
            opt.request_deadline = 60 * kSec;
            opt.slo_ttft_ms = 300000.0; // 300 s extrapolated
            opt.faults.ucp_rate = ucp;
            opt.faults.seed = 17;
            if (loss == 1)
                opt.faults.addSlowdown(0, 8.0, 2 * kSec, 12 * kSec);
            else if (loss == 2)
                opt.faults.addOffline(0, 5 * kSec);
            return opt;
        };

        // (ucp index, loss index) grid; smoke runs the worst corner.
        std::vector<std::pair<std::size_t, std::size_t>> grid;
        if (smoke)
            grid.push_back({2, 2});
        else
            for (std::size_t l = 0; l < 3; ++l)
                for (std::size_t u = 0; u < 3; ++u)
                    grid.push_back({u, l});

        const auto fstats = sweep.map<core::ServeStats>(
            grid.size(), [&](std::size_t i) {
                return sched.serve(smoke_trace,
                                   faultOpts(ucps[grid[i].first].ucp,
                                             losses[grid[i].second]
                                                 .kind));
            });

        Table t("Fault sweep (SLO smoke scenario; deadline 60 s sim, "
                "TTFT SLO 300 s, shed-newest)");
        t.header({"point", "goodput tok/s", "done", "shed", "timeout",
                  "retries", "retry MB", "remap MB", "TTFT p95",
                  "p99"});
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const core::ServeStats &s = fstats[i];
            const std::string name =
                std::string(ucps[grid[i].first].label) + "_" +
                losses[grid[i].second].label;
            t.row({name, Table::fmt(s.goodput_tokens_per_s, 4),
                   Table::fmtInt(s.completed),
                   Table::fmtInt(s.shed_slo),
                   Table::fmtInt(s.timeouts),
                   Table::fmtInt(std::uint32_t(s.read_retries)),
                   Table::fmt(double(s.retry_channel_bytes) / 1e6, 1),
                   Table::fmt(double(s.remap_bytes) / 1e6, 1),
                   Table::fmt(s.ttft.p95_ms, 0),
                   Table::fmt(s.ttft.p99_ms, 0)});
            const std::string p = "fault_sweep." + name;
            json.add(p + ".goodput_tokens_per_s",
                     s.goodput_tokens_per_s);
            json.add(p + ".completed", std::uint64_t(s.completed));
            json.add(p + ".shed_slo", std::uint64_t(s.shed_slo));
            json.add(p + ".timeouts", std::uint64_t(s.timeouts));
            json.add(p + ".read_retries", s.read_retries);
            json.add(p + ".retry_channel_mb",
                     double(s.retry_channel_bytes) / 1e6);
            json.add(p + ".remap_mb", double(s.remap_bytes) / 1e6);
            json.add(p + ".channels_lost",
                     std::uint64_t(s.channels_lost));
            json.add(p + ".ttft.p95_ms", s.ttft.p95_ms);
            json.add(p + ".ttft.p99_ms", s.ttft.p99_ms);
        }
        t.print(std::cout);

        // Accounting balance at every point: nothing vanishes.
        bool balanced = true;
        for (const core::ServeStats &s : fstats)
            balanced = balanced &&
                       (s.completed + s.shed_slo + s.timeouts +
                            s.cancelled + s.rejected_infeasible ==
                        s.requests.size());
        std::cout << "fault accounting balanced at every point: "
                  << (balanced ? "yes" : "NO") << "\n";
        json.add("fault_sweep.balanced",
                 std::uint64_t(balanced ? 1 : 0));

        if (!smoke) {
            // The zero-fault point with every resilience knob armed
            // must replay the plain scheduler's event sequence
            // bit-identically (deadline/SLO events are no-ops when
            // nothing violates them).
            core::SchedOptions plain;
            plain.max_batch = 4;
            plain.policy = core::SchedPolicy::ChunkedInterleave;
            plain.prefill_chunk = 256;
            plain.npu_contention = false;
            const core::ServeStats base =
                sched.serve(smoke_trace, plain);
            const core::ServeStats &clean = fstats[0]; // ucp0_none
            bool bit_exact =
                base.requests.size() == clean.requests.size();
            for (std::size_t i = 0;
                 bit_exact && i < base.requests.size(); ++i)
                bit_exact =
                    base.requests[i].finish_tick ==
                        clean.requests[i].finish_tick &&
                    base.requests[i].total_token_time ==
                        clean.requests[i].total_token_time &&
                    base.requests[i].prefill_time ==
                        clean.requests[i].prefill_time;
            std::cout << "zero-fault point bit-exact vs plain serve: "
                      << (bit_exact ? "yes" : "NO") << "\n";
            json.add("fault_sweep.zero_fault_bit_exact",
                     std::uint64_t(bit_exact ? 1 : 0));

            // Goodput degrades (and p95 TTFT rises) monotonically in
            // the fault rate within each loss scenario. Goodput gets
            // 0.5% headroom: its denominator is the extrapolated
            // makespan, and retry-inflated sim token times perturb the
            // extrapolation factor at the 1e-3 level.
            bool monotone = true;
            for (std::size_t l = 0; l < 3; ++l)
                for (std::size_t u = 1; u < 3; ++u) {
                    const core::ServeStats &lo = fstats[l * 3 + u - 1];
                    const core::ServeStats &hi = fstats[l * 3 + u];
                    monotone = monotone &&
                               hi.goodput_tokens_per_s <=
                                   lo.goodput_tokens_per_s * 1.005 &&
                               hi.ttft.p95_ms >= lo.ttft.p95_ms &&
                               hi.read_retries >= lo.read_retries;
                }
            std::cout << "goodput/TTFT monotone in fault rate: "
                      << (monotone ? "yes" : "NO") << "\n";
            json.add("fault_sweep.monotone",
                     std::uint64_t(monotone ? 1 : 0));
        }
    }

    // --- reliability co-design sweep ------------------------------------
    // The SLO smoke scenario on an aged, unevenly worn device: 500 h
    // retention at a mean 2000 P/E with a +/-60% per-plane gradient,
    // per-plane wear tracking deriving every read's failure rate from
    // the target plane. The grid crosses the wear-leveling policy
    // (bump re-writes in place, least-worn steers programs at the
    // freshest plane) with the on-die ECC correction strength (the
    // binomial codeword tail replaces the hand-set UCP; stronger ECC
    // senses slower but collapses the retry tail) and the background
    // retention-refresh rate (scrub reads + re-writes compete with
    // serving traffic on the channel buses). The bump/ECC-32/fastest-
    // refresh corner runs identically in --smoke so CI diffs its
    // keys.
    if (rel_only ||
        (!arrivals_only && !kv_only && !fault_only && !fleet_only)) {
        struct EccPoint
        {
            const char *label;
            std::uint32_t bits;
        };
        struct RefreshPoint
        {
            const char *label;
            double pages_per_s;
        };
        const char *pol_labels[] = {"bump", "leastworn"};
        const flash::WearPolicy pols[] = {flash::WearPolicy::Bump,
                                          flash::WearPolicy::LeastWorn};
        const EccPoint eccs[] = {
            {"ecc16", 16}, {"ecc32", 32}, {"ecc48", 48}};
        const RefreshPoint refs[] = {
            {"r0", 0.0}, {"r200", 200.0}, {"r1000", 1000.0}};

        const auto relOpts = [&](std::size_t p, std::size_t r,
                                 std::size_t e) {
            core::SchedOptions opt;
            opt.max_batch = 4;
            opt.policy = core::SchedPolicy::ChunkedInterleave;
            opt.prefill_chunk = 256;
            opt.npu_contention = false; // see the fault sweep's note
            opt.request_deadline = 60 * kSec;
            opt.slo_ttft_ms = 300000.0;
            opt.faults.seed = 17;
            opt.faults.retention_hours = 500.0;
            opt.faults.pe_cycles = 2000.0;
            opt.faults.wear_tracking = true;
            opt.faults.wear_skew = 0.6;
            opt.faults.wear_policy = pols[p];
            opt.faults.ecc_correctable_bits = eccs[e].bits;
            opt.faults.refresh_pages_per_s = refs[r].pages_per_s;
            return opt;
        };

        // (policy, refresh, ecc) grid. Smoke runs the harshest corner
        // that fits the CI budget: wear-oblivious placement, fastest
        // refresh, mid-strength ECC (the weakest ECC point climbs
        // millions of retry rungs — too slow for a smoke run).
        std::vector<std::array<std::size_t, 3>> grid;
        if (smoke)
            grid.push_back({0, 2, 1});
        else
            for (std::size_t p = 0; p < 2; ++p)
                for (std::size_t r = 0; r < 3; ++r)
                    for (std::size_t e = 0; e < 3; ++e)
                        grid.push_back({p, r, e});

        const auto rstats = sweep.map<core::ServeStats>(
            grid.size(), [&](std::size_t i) {
                return sched.serve(smoke_trace,
                                   relOpts(grid[i][0], grid[i][1],
                                           grid[i][2]));
            });

        Table t("Reliability co-design sweep (aged device, per-plane "
                "wear, 500 h / 2000 P/E +/-60%)");
        t.header({"point", "goodput tok/s", "done", "retries",
                  "retry MB", "TBT p99", "TTFT p95", "P/E spread",
                  "scrub pages", "scrub MB"});
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const core::ServeStats &s = rstats[i];
            const std::string name =
                std::string(pol_labels[grid[i][0]]) + "_" +
                eccs[grid[i][2]].label + "_" + refs[grid[i][1]].label;
            t.row({name, Table::fmt(s.goodput_tokens_per_s, 4),
                   Table::fmtInt(s.completed),
                   Table::fmtInt(std::uint32_t(s.read_retries)),
                   Table::fmt(double(s.retry_channel_bytes) / 1e6, 1),
                   Table::fmt(s.tbt.p99_ms, 0),
                   Table::fmt(s.ttft.p95_ms, 0),
                   Table::fmt(s.wear_spread_pe, 3),
                   Table::fmtInt(std::uint32_t(s.refresh_pages)),
                   Table::fmt(double(s.refresh_channel_bytes) / 1e6,
                              1)});
            const std::string p = "reliability_sweep." + name;
            json.add(p + ".goodput_tokens_per_s",
                     s.goodput_tokens_per_s);
            json.add(p + ".completed", std::uint64_t(s.completed));
            json.add(p + ".read_retries", s.read_retries);
            json.add(p + ".retry_channel_mb",
                     double(s.retry_channel_bytes) / 1e6);
            json.add(p + ".tbt.p99_ms", s.tbt.p99_ms);
            json.add(p + ".ttft.p95_ms", s.ttft.p95_ms);
            json.add(p + ".wear_spread_pe", s.wear_spread_pe);
            json.add(p + ".wear_mean_pe", s.wear_mean_pe);
            json.add(p + ".refresh_pages", s.refresh_pages);
            json.add(p + ".refresh_mb",
                     double(s.refresh_channel_bytes) / 1e6);
        }
        t.print(std::cout);

        // The area/power side of the ECC axis: what each correction
        // strength costs in decoder silicon (the serving axes above
        // are what it buys).
        for (const EccPoint &e : eccs) {
            const std::string p =
                std::string("reliability_sweep.") + e.label;
            json.add(p + ".decoder_area_um2",
                     core::eccDecoderAreaUm2(e.bits));
            json.add(p + ".decoder_power_uw",
                     core::eccDecoderPowerUw(e.bits));
        }

        // Refresh accounting: scrub work happens exactly when armed,
        // and every completed scrub page paid at least its re-write
        // on a channel bus.
        const std::uint32_t page_bytes =
            flash::FlashParams{}.geometry.page_bytes;
        bool refresh_ok = true;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const core::ServeStats &s = rstats[i];
            if (refs[grid[i][1]].pages_per_s > 0.0)
                refresh_ok = refresh_ok && s.refresh_pages > 0 &&
                             s.refresh_channel_bytes >=
                                 s.refresh_pages * page_bytes;
            else
                refresh_ok = refresh_ok && s.refresh_pages == 0 &&
                             s.refresh_channel_bytes == 0;
        }
        std::cout << "refresh traffic accounted at every point: "
                  << (refresh_ok ? "yes" : "NO") << "\n";
        json.add("reliability_sweep.refresh_accounted",
                 std::uint64_t(refresh_ok ? 1 : 0));

        if (!smoke) {
            // Stronger ECC must collapse the retry tail within every
            // (policy, refresh) slice: escalated senses strictly fall
            // and drained retry bytes never rise along the ECC axis.
            bool ecc_monotone = true;
            for (std::size_t p = 0; p < 2; ++p)
                for (std::size_t r = 0; r < 3; ++r)
                    for (std::size_t e = 1; e < 3; ++e) {
                        const core::ServeStats &weak =
                            rstats[(p * 3 + r) * 3 + e - 1];
                        const core::ServeStats &strong =
                            rstats[(p * 3 + r) * 3 + e];
                        ecc_monotone =
                            ecc_monotone &&
                            strong.read_retries < weak.read_retries &&
                            strong.retry_channel_bytes <=
                                weak.retry_channel_bytes;
                    }
            std::cout << "retries fall monotonically with ECC "
                         "strength: "
                      << (ecc_monotone ? "yes" : "NO") << "\n";
            json.add("reliability_sweep.ecc_monotone",
                     std::uint64_t(ecc_monotone ? 1 : 0));

            // Wear leveling shrinks the per-plane P/E spread wherever
            // refresh actually programs pages (strictly — the
            // least-worn policy steers every scrub re-write at the
            // freshest plane, lifting the minimum), and cannot differ
            // when nothing programs.
            bool leveling_ok = true;
            for (std::size_t r = 0; r < 3; ++r)
                for (std::size_t e = 0; e < 3; ++e) {
                    const core::ServeStats &bump =
                        rstats[(0 * 3 + r) * 3 + e];
                    const core::ServeStats &lev =
                        rstats[(1 * 3 + r) * 3 + e];
                    leveling_ok =
                        leveling_ok &&
                        (refs[r].pages_per_s > 0.0
                             ? lev.wear_spread_pe < bump.wear_spread_pe
                             : lev.wear_spread_pe ==
                                   bump.wear_spread_pe);
                }
            std::cout << "wear leveling shrinks the P/E spread: "
                      << (leveling_ok ? "yes" : "NO") << "\n";
            json.add("reliability_sweep.leveling_reduces_spread",
                     std::uint64_t(leveling_ok ? 1 : 0));

            // Inert co-design knobs must not perturb a PR 6-style
            // fault timeline: with wear tracking off, ECC strength 0
            // and refresh off, setting the passive wear skew replays
            // the same serve bit-identically — the gating, not just
            // the defaults, is what keeps the legacy fault sweep
            // byte-stable.
            core::SchedOptions legacy;
            legacy.max_batch = 4;
            legacy.policy = core::SchedPolicy::ChunkedInterleave;
            legacy.prefill_chunk = 256;
            legacy.npu_contention = false;
            legacy.request_deadline = 60 * kSec;
            legacy.slo_ttft_ms = 300000.0;
            legacy.faults.ucp_rate = 0.05;
            legacy.faults.retention_hours = 1000.0;
            legacy.faults.pe_cycles = 1500.0;
            legacy.faults.seed = 17;
            legacy.faults.addOffline(0, 5 * kSec);
            core::SchedOptions inert = legacy;
            inert.faults.wear_skew = 0.6;
            const auto pair = sweep.map<core::ServeStats>(
                2, [&](std::size_t i) {
                    return sched.serve(smoke_trace,
                                       i == 0 ? legacy : inert);
                });
            bool bit_exact =
                pair[0].requests.size() == pair[1].requests.size();
            for (std::size_t i = 0;
                 bit_exact && i < pair[0].requests.size(); ++i)
                bit_exact =
                    pair[0].requests[i].finish_tick ==
                        pair[1].requests[i].finish_tick &&
                    pair[0].requests[i].total_token_time ==
                        pair[1].requests[i].total_token_time &&
                    pair[0].requests[i].prefill_time ==
                        pair[1].requests[i].prefill_time;
            std::cout << "inert co-design knobs bit-exact vs legacy "
                         "fault serve: "
                      << (bit_exact ? "yes" : "NO") << "\n";
            json.add("reliability_sweep.inert_knobs_bit_exact",
                     std::uint64_t(bit_exact ? 1 : 0));
        }
    }

    // --- fleet sweep ----------------------------------------------------
    // N independent device replicas (Sangam-style scale-out view),
    // each serving its own seeded Poisson trace under the chunked SLO
    // config, run across the worker pool and merged index-ordered.
    // Full runs only: each replica is a full 70B co-simulation.
    if (fleet_only ||
        (!smoke && !arrivals_only && !kv_only && !fault_only &&
         !rel_only)) {
        const std::size_t replicas = 4;
        const std::uint64_t fleet_seed = 23;
        const auto replica = [&](std::size_t, std::uint64_t seed) {
            const core::ArrivalTrace trace =
                core::ArrivalTrace::poisson(0.5, 6, seed, shapes);
            return serveTrace(trace,
                              core::SchedPolicy::ChunkedInterleave,
                              256u, 4);
        };
        const core::FleetSweep fleet;
        const core::FleetStats fs =
            fleet.run(replicas, fleet_seed, replica);

        Table t("Fleet sweep (" + std::to_string(replicas) +
                " replicas x 6 Poisson arrivals @ 0.5 req/s, "
                "chunked 256, batch 4)");
        t.header({"replica", "seed", "tok", "goodput tok/s",
                  "TTFT p99", "makespan ms", "events"});
        for (std::size_t i = 0; i < fs.replicas; ++i) {
            const core::ServeStats &s = fs.replica_stats[i];
            t.row({Table::fmtInt(std::uint32_t(i)),
                   std::to_string(
                       core::FleetSweep::replicaSeed(fleet_seed, i) &
                       0xffff),
                   Table::fmtInt(std::uint32_t(s.total_tokens)),
                   Table::fmt(s.goodput_tokens_per_s, 4),
                   Table::fmt(s.ttft.p99_ms, 0),
                   Table::fmt(double(s.sim_makespan) / 1e6, 1),
                   Table::fmtInt(std::uint32_t(s.sim_events))});
        }
        t.row({"fleet", "-",
               Table::fmtInt(std::uint32_t(fs.total_tokens)),
               Table::fmt(fs.goodput_tokens_per_s, 4),
               Table::fmt(fs.ttft.p99_ms, 0),
               Table::fmt(double(fs.sim_makespan_max) / 1e6, 1),
               Table::fmtInt(std::uint32_t(fs.sim_events))});
        t.print(std::cout);

        json.add("fleet_sweep.replicas", std::uint64_t(fs.replicas));
        json.add("fleet_sweep.threads",
                 std::uint64_t(fleet.threads()));
        json.add("fleet_sweep.requests", std::uint64_t(fs.requests));
        json.add("fleet_sweep.completed", fs.completed);
        json.add("fleet_sweep.total_tokens", fs.total_tokens);
        json.add("fleet_sweep.goodput_tokens_per_s",
                 fs.goodput_tokens_per_s);
        json.add("fleet_sweep.sim_events", fs.sim_events);
        json.add("fleet_sweep.sim_makespan_max_ms",
                 double(fs.sim_makespan_max) / 1e6);
        json.add("fleet_sweep.events_per_s", fs.events_per_s);
        json.add("fleet_sweep.ttft.p50_ms", fs.ttft.p50_ms);
        json.add("fleet_sweep.ttft.p95_ms", fs.ttft.p95_ms);
        json.add("fleet_sweep.ttft.p99_ms", fs.ttft.p99_ms);

        // Self-check 1: one worker thread vs the full pool must merge
        // bit-identically (seeding + index-ordered reduction).
        const core::FleetStats ref =
            core::FleetSweep(1).run(replicas, fleet_seed, replica);
        const bool deterministic =
            ref.total_tokens == fs.total_tokens &&
            ref.sim_events == fs.sim_events &&
            ref.sim_makespan_max == fs.sim_makespan_max &&
            ref.goodput_tokens_per_s == fs.goodput_tokens_per_s &&
            ref.ttft.p99_ms == fs.ttft.p99_ms;
        std::cout << "fleet merge bit-identical across thread "
                     "counts: "
                  << (deterministic ? "yes" : "NO") << "\n";
        json.add("fleet_sweep.deterministic",
                 std::uint64_t(deterministic ? 1 : 0));

        // Self-check 2: a replica's result is a pure function of
        // (base seed, index) — shrinking the fleet must not perturb
        // the replicas that remain.
        const core::FleetStats half =
            core::FleetSweep(1).run(replicas / 2, fleet_seed,
                                    replica);
        bool prefix_ok = true;
        for (std::size_t i = 0; i < replicas / 2; ++i)
            prefix_ok =
                prefix_ok &&
                half.replica_stats[i].sim_events ==
                    fs.replica_stats[i].sim_events &&
                half.replica_stats[i].sim_makespan ==
                    fs.replica_stats[i].sim_makespan &&
                half.replica_stats[i].total_tokens ==
                    fs.replica_stats[i].total_tokens;
        std::cout << "replica results independent of fleet size: "
                  << (prefix_ok ? "yes" : "NO") << "\n";
        json.add("fleet_sweep.replica_prefix_independent",
                 std::uint64_t(prefix_ok ? 1 : 0));
    }

    json.add("wall_clock_s",
             std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - wall0)
                 .count());
    const char *path = "BENCH_serving.json";
    if (json.writeTo(path))
        std::cout << "\nwrote " << path << "\n";
    else
        std::cerr << "failed to write " << path << "\n";
    return 0;
}
