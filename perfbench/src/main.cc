/**
 * @file
 * Benchmark command: runs one workload for one seed and prints every
 * metric by name with its unit, then one JSON result line.
 *
 *   perfbench --workload chat_70b --seed 1 --seconds 20 --trace 0
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 is the separate
 * traced run that reports the per-layer metrics and writes the span
 * file (--trace-out, default .bench_out/<workload>-seed<seed>.json).
 * Exits 1 when an output check fails.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &s, const char *flag)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(s, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != s.size() || s[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    std::string workload;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            opt.seed = parseUint(v, "--seed"), have_seed = true;
        else if (a == "--seconds")
            opt.seconds = double(parseUint(v, "--seconds")),
            have_seconds = true;
        else if (a == "--trace")
            opt.trace = parseUint(v, "--trace") != 0;
        else if (a == "--trace-out")
            opt.trace_path = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (workload.empty() || !have_seed || !have_seconds)
        usage("--workload, --seed and --seconds are required");
    bool known = false;
    for (const std::string &n : perfbench::workloadNames())
        known = known || n == workload;
    if (!known)
        usage(("unknown workload " + workload).c_str());
    if (opt.trace && opt.trace_path.empty()) {
        std::filesystem::create_directories(".bench_out");
        opt.trace_path = ".bench_out/" + workload + "-seed" +
                         std::to_string(opt.seed) + ".json";
    }

    const perfbench::RunResult r = perfbench::runWorkload(workload, opt);

    std::cout << "workload " << workload << " seed " << opt.seed
              << (opt.trace ? " (traced)" : "") << "\n";
    for (const std::string &n : r.notes)
        std::cout << "  " << n << "\n";
    if (opt.trace)
        std::cout << "  span file " << opt.trace_path << "\n";
    for (const auto *set : {&r.end_to_end, &r.per_layer})
        for (const perfbench::Metric &m : *set)
            std::cout << "  " << m.name << " = " << jsonNumber(m.value)
                      << " " << m.unit << "\n";
    std::cout << "  sim fingerprint " << std::hex << r.sim_fingerprint
              << std::dec << "\n";
    for (const std::string &f : r.failures)
        std::cout << "  CHECK FAILED: " << f << "\n";

    const auto &reported = opt.trace ? r.per_layer : r.end_to_end;
    std::cout << "{\"correct\": " << (r.correct() ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << reported[i].name
                  << "\": {\"value\": " << jsonNumber(reported[i].value)
                  << ", \"unit\": \"" << reported[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return r.correct() ? 0 : 1;
}
