#include "arrivals.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"

namespace camllm::core {

ArrivalTrace
ArrivalTrace::poisson(double rate_per_s, std::size_t n_requests,
                      std::uint64_t seed,
                      const std::vector<RequestShape> &shapes)
{
    CAMLLM_ASSERT(rate_per_s > 0.0);
    CAMLLM_ASSERT(n_requests > 0);
    CAMLLM_ASSERT(!shapes.empty());
    for (const RequestShape &s : shapes)
        CAMLLM_ASSERT((ServeRequest{s.first, 0, s.second}.servable()),
                      "poisson shapes need a prompt");

    Rng rng(seed);
    ArrivalTrace t;
    t.reqs_.reserve(n_requests);
    double now_s = 0.0;
    for (std::size_t i = 0; i < n_requests; ++i) {
        // Exponential inter-arrival via inverse transform; uniform()
        // is in [0, 1), so 1 - u is in (0, 1] and the log is finite.
        const double u = rng.uniform();
        now_s += -std::log(1.0 - u) / rate_per_s;
        const RequestShape &shape = shapes[rng.below(shapes.size())];
        ServeRequest r;
        r.prompt = shape.first;
        r.decode_tokens = shape.second;
        r.arrival = secondsToTicks(now_s);
        t.reqs_.push_back(r);
    }
    return t;
}

ArrivalTrace
ArrivalTrace::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open arrival trace '%s'", path.c_str());

    ArrivalTrace t;
    std::string line;
    Tick prev = 0;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream ls(line);
        double arrival_us = 0.0;
        ServeRequest r;
        if (!(ls >> arrival_us >> r.prompt >> r.decode_tokens))
            fatal("%s:%zu: expected 'arrival_us prompt decode "
                  "[context]'",
                  path.c_str(), lineno);
        ls >> r.context; // optional; stays 0 when absent
        CAMLLM_ASSERT(arrival_us >= 0.0 && r.servable(),
                      "%s:%zu: invalid request", path.c_str(), lineno);
        r.arrival = Tick(arrival_us * double(kUs) + 0.5);
        CAMLLM_ASSERT(r.arrival >= prev,
                      "%s:%zu: arrivals must be non-decreasing",
                      path.c_str(), lineno);
        prev = r.arrival;
        t.reqs_.push_back(r);
    }
    CAMLLM_ASSERT(!t.reqs_.empty(), "trace '%s' has no requests",
                  path.c_str());
    return t;
}

ArrivalTrace
ArrivalTrace::withSharedPrefix(std::uint64_t prefix_id,
                               std::uint32_t prefix_tokens) const
{
    CAMLLM_ASSERT(prefix_id != 0 && prefix_tokens >= 1);
    ArrivalTrace t = *this;
    for (ServeRequest &r : t.reqs_) {
        r.prefix_id = prefix_id;
        r.prefix_tokens = std::min(r.prompt, prefix_tokens);
    }
    return t;
}

ArrivalTrace
ArrivalTrace::burst(std::vector<ServeRequest> requests)
{
    ArrivalTrace t;
    t.reqs_ = std::move(requests);
    for (ServeRequest &r : t.reqs_)
        r.arrival = 0;
    return t;
}

} // namespace camllm::core
