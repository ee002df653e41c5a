#include "sweep.h"

#include <cstdlib>

#include "common/logging.h"

namespace camllm::core {

ParallelSweep::ParallelSweep(unsigned threads) : threads_(threads)
{
    if (threads_ == 0)
        threads_ = hardwareThreads();
}

unsigned
ParallelSweep::hardwareThreads()
{
    if (const char *env = std::getenv("CAMLLM_SWEEP_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n >= 1)
            return unsigned(n);
        warn("ignoring CAMLLM_SWEEP_THREADS='%s' (want a count >= 1)",
             env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace camllm::core
