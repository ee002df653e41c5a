/**
 * @file
 * Serving scenario: an on-device assistant under load.
 *
 * Part 1 — burst: twelve warm-context requests land at once and the
 * scheduler serves them with continuous batching at a batch limit of 4,
 * compared against strictly serial service of the same queue.
 *
 * Part 2 — arrivals: chat turns with real prompts arrive as a seeded
 * Poisson process and the unified scheduler serves them with chunked
 * prefill interleaved into in-flight decode on a contended NPU,
 * compared against FCFS whole-prompt prefill. Reports the numbers an
 * on-device assistant is actually judged by: p50/p95/p99 time to
 * first token and time between tokens.
 *
 * Part 3 — memory wall: the same arrival load served from a bounded
 * paged KV pool (the DRAM a real device actually has left for KV).
 * At 3/8 of the trace's KV demand the scheduler queues admissions,
 * preempts the latest-arrived request when the pool runs dry and
 * recomputes its evicted KV — the tail-latency price of the memory
 * wall, next to the unbounded run of part 2.
 *
 * Part 4 — faults: the same load again, but the NAND is old. Every
 * read rolls against an uncorrectable-page rate and failed pages
 * climb a read-retry ladder; mid-run, flash channel 0 dies outright,
 * its weight shards remap to the survivors, and in-flight reads
 * re-issue. Deadlines and TTFT-SLO shedding are armed, so requests
 * the degraded array can no longer serve in time are shed or torn
 * down instead of wedging the batch. Reports the resilience bill:
 * retry traffic, remap bytes, shed/timeout counts, p95 TTFT delta.
 */

#include <cstdio>
#include <vector>

#include "core/arrivals.h"
#include "core/presets.h"
#include "core/scheduler.h"
#include "llm/model_config.h"

using namespace camllm;
using namespace camllm::core;

int
main()
{
    const CamConfig cfg = presetL();
    const llm::ModelConfig model = llm::llama2_70b();

    // (prompt, context, reply tokens, arrival): warm-KV chat turns,
    // two long-document queries, code completions, all at once.
    const std::vector<ServeRequest> queue = {
        {0, 512, 3, 0},  {0, 768, 2, 0},   {0, 1024, 3, 0},
        {0, 640, 2, 0},  {0, 8192, 2, 0},  {0, 12288, 2, 0},
        {0, 2048, 3, 0}, {0, 1536, 2, 0},  {0, 3072, 2, 0},
        {0, 896, 3, 0},  {0, 4096, 2, 0},  {0, 1280, 2, 0},
    };

    // Default options: decode-first FCFS with a free NPU.
    const Scheduler sched(cfg, model);
    SchedOptions burst;
    burst.max_batch = 4;
    const ServeStats batched = sched.serve(queue, burst);
    burst.max_batch = 1;
    const ServeStats serial = sched.serve(queue, burst);

    std::printf("camllm serving_sim: %zu requests on %s / %s\n\n",
                queue.size(), cfg.name.c_str(), model.name.c_str());
    std::printf("%4s %8s %7s %11s %12s %14s %8s\n", "req", "context",
                "tokens", "admit (ms)", "finish (ms)", "mean tok (ms)",
                "tok/s");
    for (const ServeRequestStats &r : batched.requests)
        std::printf("%4u %8u %7u %11.2f %12.2f %14.1f %8.3f\n", r.id,
                    r.context, r.decode_tokens,
                    double(r.admit_tick) / 1e6,
                    double(r.finish_tick) / 1e6,
                    double(r.mean_token_time) / 1e6, r.tokens_per_s);

    std::printf("\n%-34s %10s %10s\n", "", "batch=4", "serial");
    std::printf("%-34s %10.3f %10.3f\n", "aggregate tokens/s",
                batched.aggregate_tokens_per_s,
                serial.aggregate_tokens_per_s);
    std::printf("%-34s %10.3f %10.3f\n", "finite-run tokens/s",
                batched.finite_run_tokens_per_s,
                serial.finite_run_tokens_per_s);
    std::printf("%-34s %9.1f%% %9.1f%%\n", "channel utilization",
                100.0 * batched.avg_channel_util,
                100.0 * serial.avg_channel_util);
    std::printf("%-34s %10.3f %10.3f\n", "Jain fairness",
                batched.fairness_jain, serial.fairness_jain);
    std::printf("%-34s %9.1fms %9.1fms\n", "sim makespan",
                double(batched.sim_makespan) / 1e6,
                double(serial.sim_makespan) / 1e6);
    std::printf("\ncontinuous batching served the burst %.2fx faster "
                "than serial decode.\n",
                serial.finite_run_tokens_per_s > 0.0
                    ? batched.finite_run_tokens_per_s /
                          serial.finite_run_tokens_per_s
                    : 0.0);

    // --- part 2: Poisson arrivals with real prompts ------------------
    // Chat turns (short prompt, short reply) with the occasional long
    // document; one request every ~2.5 simulated seconds on average.
    const std::vector<RequestShape> shapes = {
        {384, 3}, {768, 2}, {1536, 1}};
    const ArrivalTrace trace =
        ArrivalTrace::poisson(0.4, 8, /*seed=*/2024, shapes);

    const auto serveWith = [&](SchedPolicy policy) {
        SchedOptions opt;
        opt.max_batch = 4;
        opt.policy = policy;
        opt.prefill_chunk = 256;
        opt.npu_contention = true;
        return sched.serve(trace, opt);
    };
    const ServeStats fcfs =
        serveWith(SchedPolicy::DecodeFirstFcfs);
    const ServeStats chunked =
        serveWith(SchedPolicy::ChunkedInterleave);

    std::printf("\n--- Poisson arrivals: %zu requests, batch 4, "
                "contended NPU ---\n\n",
                trace.size());
    std::printf("%4s %8s %7s %12s %12s %11s %13s\n", "req", "prompt",
                "reply", "arrive (ms)", "admit (ms)", "TTFT (ms)",
                "mean TBT (ms)");
    for (const ServeRequestStats &r : chunked.requests)
        std::printf("%4u %8u %7u %12.1f %12.1f %11.0f %13.0f\n",
                    r.id, r.prompt, r.decode_tokens,
                    double(r.arrival) / 1e6,
                    double(r.admit_tick) / 1e6, r.ttft_ms,
                    r.mean_tbt_ms);

    std::printf("\n%-26s %14s %14s\n", "", "chunked 256",
                "fcfs whole");
    std::printf("%-26s %13.0fms %13.0fms\n", "TTFT p50",
                chunked.ttft.p50_ms, fcfs.ttft.p50_ms);
    std::printf("%-26s %13.0fms %13.0fms\n", "TTFT p95",
                chunked.ttft.p95_ms, fcfs.ttft.p95_ms);
    std::printf("%-26s %13.0fms %13.0fms\n", "TBT p95",
                chunked.tbt.p95_ms, fcfs.tbt.p95_ms);
    std::printf("%-26s %13.1f%% %13.1f%%\n", "NPU array util",
                100.0 * chunked.npu_array_util,
                100.0 * fcfs.npu_array_util);
    std::printf("%-26s %14.2f %14.2f\n", "finite-run tok/s",
                chunked.finite_run_tokens_per_s,
                fcfs.finite_run_tokens_per_s);
    std::printf("\nchunked prefill interleaving kept p95 TBT %.1fx "
                "lower than whole-prompt FCFS.\n",
                chunked.tbt.p95_ms > 0.0
                    ? fcfs.tbt.p95_ms / chunked.tbt.p95_ms
                    : 0.0);

    // --- part 3: the same load against a bounded KV pool -------------
    // 64-token KV blocks; budget = 3/8 of the trace's total KV demand,
    // the regime where a 70B model's KV no longer fits the DRAM left
    // beside the weights.
    const std::uint32_t block_tokens = 64;
    const std::uint64_t token_kv_bytes =
        std::uint64_t(model.kvDim()) *
        (llm::QuantSpec::of(cfg.quant).act_bits / 8) * model.n_layers;
    std::uint64_t demand_blocks = 0;
    for (const ServeRequest &r : trace.requests())
        demand_blocks += (std::uint64_t(r.context) + r.prompt +
                          r.decode_tokens + block_tokens - 1) /
                         block_tokens;

    SchedOptions bounded;
    bounded.max_batch = 4;
    bounded.policy = SchedPolicy::ChunkedInterleave;
    bounded.prefill_chunk = 256;
    bounded.npu_contention = true;
    bounded.kv_block_tokens = block_tokens;
    bounded.kv_budget_bytes =
        demand_blocks * 3 / 8 * block_tokens * token_kv_bytes;
    const ServeStats walled = sched.serve(trace, bounded);

    std::printf("\n--- bounded KV pool: %llu of %llu blocks "
                "(64-token blocks, ~%.0f MB) ---\n\n",
                (unsigned long long)walled.kv_blocks_total,
                (unsigned long long)demand_blocks,
                double(bounded.kv_budget_bytes) / 1e6);
    std::printf("%-26s %14s %14s\n", "", "bounded", "unbounded");
    std::printf("%-26s %13.0fms %13.0fms\n", "TTFT p95",
                walled.ttft.p95_ms, chunked.ttft.p95_ms);
    std::printf("%-26s %13.0fms %13.0fms\n", "TBT p95",
                walled.tbt.p95_ms, chunked.tbt.p95_ms);
    std::printf("%-26s %14.2f %14.2f\n", "finite-run tok/s",
                walled.finite_run_tokens_per_s,
                chunked.finite_run_tokens_per_s);
    std::printf("%-26s %14u %14u\n", "preemptions",
                walled.preemptions, chunked.preemptions);
    std::printf("%-26s %14llu %14llu\n", "KV tokens recomputed",
                (unsigned long long)walled.recompute_tokens,
                (unsigned long long)chunked.recompute_tokens);
    std::printf("%-26s %11llu/%-3llu %14llu\n", "KV blocks high/total",
                (unsigned long long)walled.kv_blocks_high_water,
                (unsigned long long)walled.kv_blocks_total,
                (unsigned long long)chunked.kv_blocks_high_water);
    std::printf("\nbounding KV capacity cost %.0f ms of p95 TTFT and "
                "%u preemption(s) on this trace.\n",
                walled.ttft.p95_ms - chunked.ttft.p95_ms,
                walled.preemptions);

    // --- part 4: the NAND is old and a channel dies mid-run ----------
    // 5% of page reads fail ECC and climb the retry ladder; channel 0
    // goes offline a few simulated seconds in, forcing a weight remap
    // onto the 31 survivors and re-issue of its in-flight reads.
    // Deadlines and TTFT-SLO shedding are armed so the degraded array
    // sheds what it can no longer serve in time. Contention is off in
    // both columns: retry jitter on a contended array shifts stream
    // phases, which would muddy the fault bill we want to isolate.
    SchedOptions aged;
    aged.max_batch = 4;
    aged.policy = SchedPolicy::ChunkedInterleave;
    aged.prefill_chunk = 256;
    aged.npu_contention = false;
    const ServeStats sound = sched.serve(trace, aged);

    aged.request_deadline = 12 * kSec;
    aged.slo_ttft_ms = sound.ttft.p95_ms;
    aged.faults.ucp_rate = 0.05;
    aged.faults.seed = 7;
    aged.faults.addOffline(0, 4 * kSec);
    const ServeStats faulty = sched.serve(trace, aged);

    std::printf("\n--- aging NAND: 5%% uncorrectable pages, channel 0 "
                "dies at 4 s (sim) ---\n\n");
    std::printf("%-26s %14s %14s\n", "", "healthy", "degraded");
    std::printf("%-26s %13.0fms %13.0fms\n", "TTFT p95",
                sound.ttft.p95_ms, faulty.ttft.p95_ms);
    std::printf("%-26s %13.0fms %13.0fms\n", "TBT p95",
                sound.tbt.p95_ms, faulty.tbt.p95_ms);
    std::printf("%-26s %14.3f %14.3f\n", "goodput tok/s",
                sound.goodput_tokens_per_s,
                faulty.goodput_tokens_per_s);
    std::printf("%-26s %8u/%u/%-4u %8u/%u/%-4u\n",
                "done/shed/timeout", sound.completed, sound.shed_slo,
                sound.timeouts, faulty.completed, faulty.shed_slo,
                faulty.timeouts);
    std::printf("%-26s %14llu %14llu\n", "read retries",
                (unsigned long long)sound.read_retries,
                (unsigned long long)faulty.read_retries);
    std::printf("%-26s %12.1fMB %12.1fMB\n", "retry channel traffic",
                double(sound.retry_channel_bytes) / 1e6,
                double(faulty.retry_channel_bytes) / 1e6);
    std::printf("%-26s %12.1fMB %12.1fMB\n", "weight remap traffic",
                double(sound.remap_bytes) / 1e6,
                double(faulty.remap_bytes) / 1e6);
    std::printf("%-26s %14u %14u\n", "channels lost",
                sound.channels_lost, faulty.channels_lost);
    std::printf("%-26s %14llu %14llu\n", "reads re-issued",
                (unsigned long long)sound.reissued_jobs,
                (unsigned long long)faulty.reissued_jobs);
    std::printf("\nlosing a channel plus 5%%-UCP retries cost %.0f ms "
                "of p95 TTFT and %.1f MB of retry+remap traffic; "
                "%u request(s) shed, %u timed out.\n",
                faulty.ttft.p95_ms - sound.ttft.p95_ms,
                double(faulty.retry_channel_bytes +
                       faulty.remap_bytes) /
                    1e6,
                faulty.shed_slo, faulty.timeouts);
    return 0;
}
