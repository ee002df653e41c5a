/**
 * @file
 * Request arrival processes feeding the serving scheduler.
 *
 * A trace is an arrival-time-ordered list of ServeRequests. Traces
 * come from three places: a Poisson process (seeded, bit-reproducible
 * via common/rng.h), a replay file, or an explicit burst at t = 0.
 * Arrival ticks are on the simulation clock (sampled-layer time), so
 * a Poisson rate is "requests per simulated second of sampled-layer
 * service" — the knob that moves a scenario between underload and
 * saturation for SLO capacity planning.
 */

#ifndef CAMLLM_CORE_ARRIVALS_H
#define CAMLLM_CORE_ARRIVALS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace camllm::core {

/** One request as the serving scheduler sees it. */
struct ServeRequest
{
    /** Prompt tokens to prefill; 0 means the KV cache is already warm
     *  (a decode-only request). */
    std::uint32_t prompt = 0;

    /** KV entries cached before this request's prompt (decode-only
     *  requests put their whole context here). */
    std::uint32_t context = 0;

    /** Decode steps after the prompt. A prompted request emits its
     *  first token from the last prefill chunk, so 0 serves a
     *  prefill-only request; a decode-only request needs at least
     *  one step, which emits its first token. */
    std::uint32_t decode_tokens = 1;

    /** Arrival tick on the sampled-layer sim clock. That clock runs
     *  about n_layers / sample_layers times faster than the
     *  depth-extrapolated time of the reported TTFT/TBT and of
     *  SchedOptions::slo_ttft_ms (ROADMAP item 1 moves every time
     *  input onto one clock). */
    Tick arrival = 0;

    /** User cancellation tick (0 = never), on the same sampled-layer
     *  sim clock as @ref arrival: at this sim time the client gives
     *  up and the scheduler tears the request down, wherever it is —
     *  queued, prefilling or decoding. */
    Tick cancel_at = 0;

    /** Shared-prompt tag (0 = none): requests with the same nonzero
     *  id lead with the same @ref prefix_tokens prompt tokens, so a
     *  prefix-sharing scheduler can map the cached KV blocks of that
     *  prefix into this request's table instead of prefilling them
     *  again. Inert unless SchedOptions::kv_prefix_sharing is on. */
    std::uint64_t prefix_id = 0;

    /** Leading prompt tokens covered by @ref prefix_id. Sharing works
     *  at block granularity on context-free prompts: only whole KV
     *  blocks inside this span (and strictly inside the prompt, so
     *  the last chunk still emits the first token) are shared. */
    std::uint32_t prefix_tokens = 0;

    /** The one request-validity rule, shared by serve() and every
     *  trace source: a prompt (whose last chunk emits the first
     *  token), or warm context and a decode step to emit it. */
    bool
    servable() const
    {
        return prompt >= 1 || (context >= 1 && decode_tokens >= 1);
    }
};

/** A (prompt, decode_tokens) request shape for synthetic traces. */
using RequestShape = std::pair<std::uint32_t, std::uint32_t>;

/** Arrival-ordered request trace. */
class ArrivalTrace
{
  public:
    ArrivalTrace() = default;

    /**
     * Seeded Poisson process: exponential inter-arrival times at
     * @p rate_per_s requests per simulated second, each request's
     * shape drawn uniformly from @p shapes (each must make a
     * ServeRequest::servable() request). Identical seeds replay
     * bit-identical traces on every platform (xoshiro256**, portable
     * distributions).
     */
    static ArrivalTrace poisson(double rate_per_s,
                                std::size_t n_requests,
                                std::uint64_t seed,
                                const std::vector<RequestShape> &shapes);

    /**
     * Replay a trace file: one request per non-comment line,
     * whitespace-separated `arrival_us prompt decode_tokens
     * [context]`. Lines starting with '#' are skipped. Arrivals must
     * be non-negative and non-decreasing, and every request
     * ServeRequest::servable().
     */
    static ArrivalTrace fromFile(const std::string &path);

    /** Every request landing at t = 0 (a burst / fixed queue). */
    static ArrivalTrace burst(std::vector<ServeRequest> requests);

    /** Copy of this trace with every request tagged as leading with
     *  the same @p prefix_tokens-token shared prompt @p prefix_id —
     *  the "thousands of users share a system prompt" workload. */
    ArrivalTrace withSharedPrefix(std::uint64_t prefix_id,
                                  std::uint32_t prefix_tokens) const;

    const std::vector<ServeRequest> &requests() const { return reqs_; }
    std::size_t size() const { return reqs_.size(); }
    bool empty() const { return reqs_.empty(); }

  private:
    std::vector<ServeRequest> reqs_;
};

} // namespace camllm::core

#endif // CAMLLM_CORE_ARRIVALS_H
