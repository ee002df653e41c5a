#include "core/fleet.h"

#include "common/stats.h"

namespace camllm::core {

FleetStats
FleetSweep::merge(std::vector<ServeStats> replica_stats)
{
    FleetStats out;
    out.replicas = replica_stats.size();

    // Merge TTFT as one pooled sample set across the fleet: averaging
    // per-replica percentiles would understate the tail, and pooled
    // nearest-rank percentiles stay bit-identical for any thread
    // count because the samples are visited in (replica, request)
    // index order.
    SampleSet ttft_ms;
    for (const ServeStats &s : replica_stats) {
        out.requests += s.requests.size();
        out.admitted += s.admitted;
        out.completed += s.completed;
        out.total_tokens += s.total_tokens;
        out.sim_events += s.sim_events;
        out.sim_makespan_max = std::max(out.sim_makespan_max,
                                        s.sim_makespan);
        out.goodput_tokens_per_s += s.goodput_tokens_per_s;
        out.finite_run_tokens_per_s += s.finite_run_tokens_per_s;
        for (const ServeRequestStats &r : s.requests)
            if (r.tokens_emitted > 0)
                ttft_ms.add(r.ttft_ms);
    }
    out.ttft = summarize(ttft_ms);

    out.replica_stats = std::move(replica_stats);
    return out;
}

} // namespace camllm::core
