/**
 * @file
 * Figure 9 (the headline result): end-to-end decode speed of
 * Cambricon-LLM S/M/L against (a) FlexGen-SSD / FlexGen-DRAM on the
 * OPT family and (b) MLC-LLM on the Llama2 family. Also prints the
 * Table II / Table III configuration summaries.
 */

#include <chrono>
#include <iostream>

#include "baselines/flexgen.h"
#include "baselines/mlc_llm.h"
#include "bench_util.h"
#include "json_out.h"

using namespace camllm;

namespace {

void
printConfigs()
{
    Table t2("Table II: Cambricon-LLM configurations");
    t2.header({"config", "channels", "chips/ch", "cores/ch",
               "page", "tR", "bus"});
    for (const auto &cfg : bench::presets()) {
        const auto &g = cfg.flash.geometry;
        t2.row({cfg.name, Table::fmtInt(g.channels),
                Table::fmtInt(g.chips_per_channel),
                Table::fmtInt(g.coresPerChannel()),
                Table::fmtInt(g.page_bytes / 1024) + " KB",
                Table::fmtInt(cfg.flash.timing.t_read / 1000) + " us",
                Table::fmtInt(cfg.flash.timing.bus_mts) + " MT/s x8"});
    }
    t2.print(std::cout);

    Table t3("Table III: baseline configurations");
    t3.header({"baseline", "quant", "weights", "key rates"});
    t3.row({"FlexGen-SSD", "8 bit", "NVMe SSD",
            "SSD ~5.5 GB/s, PCIe4 ~25 GB/s"});
    t3.row({"FlexGen-DRAM", "8 bit", "host DRAM", "PCIe4 ~25 GB/s"});
    t3.row({"MLC-LLM", "4 bit", "phone LPDDR",
            "eff. ~26.5 GB/s, ~6 GB usable"});
    t3.print(std::cout);
}

} // namespace

int
main()
{
    const auto wall0 = std::chrono::steady_clock::now();
    bench::banner("Fig 9 end-to-end decode speed (token/s)");
    printConfigs();

    const auto quant = llm::QuantSpec::of(llm::QuantMode::W8A8);
    bench::BenchJson json;
    json.addString("bench", "bench_fig09_end_to_end");

    // Every (preset, model) co-simulation of both subfigures in one
    // parallel pass; rows are rebuilt from the order-preserving
    // results below.
    const auto opt_models = llm::optFamily();
    const auto llama_models = llm::llamaFamily();
    const std::string preset_l_name = core::presetL().name;
    std::vector<bench::SweepJob> jobs;
    // Indices of the Cam-LLM-L points the headline table reuses,
    // recorded while building the job list so preset/model reorders
    // cannot silently skew the reported speedups.
    std::size_t idx_l_opt67 = 0, idx_l_opt66 = 0, idx_l_llama70 = 0;
    const auto note = [&](const core::CamConfig &cfg,
                          const llm::ModelConfig &m) {
        if (cfg.name != preset_l_name)
            return;
        if (m.name == "OPT-6.7B")
            idx_l_opt67 = jobs.size() - 1;
        else if (m.name == "OPT-66B")
            idx_l_opt66 = jobs.size() - 1;
        else if (m.name == "Llama2-70B")
            idx_l_llama70 = jobs.size() - 1;
    };
    for (const auto &cfg : bench::presets())
        for (const auto &m : opt_models) {
            jobs.emplace_back(cfg, m);
            note(cfg, m);
        }
    for (const auto &cfg : bench::presets())
        for (const auto &m : llama_models) {
            jobs.emplace_back(cfg, m);
            note(cfg, m);
        }
    const auto stats = bench::runSweep(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        json.add(jobs[i].first.name + "." + jobs[i].second.name +
                     ".tokens_per_s",
                 stats[i].tokens_per_s);

    // --- Fig 9(a): OPT family vs FlexGen --------------------------------
    Table a("Fig 9(a): decode speed on OPT (token/s)");
    a.header({"system", "OPT-6.7B", "OPT-13B", "OPT-30B", "OPT-66B"});
    std::size_t j = 0;
    for (const auto &cfg : bench::presets()) {
        std::vector<std::string> row = {cfg.name};
        for (std::size_t mi = 0; mi < opt_models.size(); ++mi)
            row.push_back(Table::fmt(stats[j++].tokens_per_s, 2));
        a.row(row);
    }
    for (auto placement : {baselines::FlexGenPlacement::Ssd,
                           baselines::FlexGenPlacement::Dram}) {
        baselines::FlexGenConfig fg;
        fg.placement = placement;
        std::vector<std::string> row = {
            placement == baselines::FlexGenPlacement::Ssd
                ? "Flexgen-ssd"
                : "Flexgen-DRAM"};
        for (const auto &m : llm::optFamily())
            row.push_back(Table::fmt(
                baselines::flexgenDecode(m, quant, fg).tokens_per_s, 2));
        a.row(row);
    }
    a.print(std::cout);

    // --- Fig 9(b): Llama2 family vs MLC-LLM ------------------------------
    Table b("Fig 9(b): decode speed on Llama2 (token/s)");
    b.header({"system", "Llama2-7B", "Llama2-13B", "Llama2-70B"});
    for (const auto &cfg : bench::presets()) {
        std::vector<std::string> row = {cfg.name};
        for (std::size_t mi = 0; mi < llama_models.size(); ++mi)
            row.push_back(Table::fmt(stats[j++].tokens_per_s, 2));
        b.row(row);
    }
    {
        std::vector<std::string> row = {"MLC-LLM (4-bit)"};
        for (const auto &m : llm::llamaFamily()) {
            auto r = baselines::mlcLlmDecode(m);
            row.push_back(r.oom ? "OOM" : Table::fmt(r.tokens_per_s, 2));
        }
        b.row(row);
    }
    b.print(std::cout);

    // --- headline ratios ---------------------------------------------------
    baselines::FlexGenConfig ssd;
    const double fg67 =
        baselines::flexgenDecode(llm::opt6_7b(), quant, ssd)
            .tokens_per_s;
    const double fg66 =
        baselines::flexgenDecode(llm::opt66b(), quant, ssd).tokens_per_s;
    const double l67 = stats[idx_l_opt67].tokens_per_s;
    const double l66 = stats[idx_l_opt66].tokens_per_s;
    const double l70 = stats[idx_l_llama70].tokens_per_s;

    Table h("Headline speedups vs FlexGen-SSD");
    h.header({"comparison", "measured", "paper"});
    h.row({"Cam-LLM-L / FlexGen-SSD on OPT-6.7B",
           Table::fmt(l67 / fg67, 1) + "x", "44.8x"});
    h.row({"Cam-LLM-L / FlexGen-SSD on OPT-66B",
           Table::fmt(l66 / fg66, 1) + "x", "22.1x"});
    h.row({"Cam-LLM-L on Llama2-70B (token/s)", Table::fmt(l70, 2),
           "3.44"});
    h.print(std::cout);

    json.add("headline.camllm_l_over_flexgen_ssd_opt6_7b", l67 / fg67);
    json.add("headline.camllm_l_over_flexgen_ssd_opt66b", l66 / fg66);
    json.add("headline.camllm_l_llama2_70b_tokens_per_s", l70);
    json.add("sweep_threads",
             std::uint64_t(core::ParallelSweep::hardwareThreads()));
    json.add("wall_clock_s",
             std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - wall0)
                 .count());
    const char *path = "BENCH_fig09.json";
    if (json.writeTo(path))
        std::cout << "\nwrote " << path << "\n";
    else
        std::cerr << "failed to write " << path << "\n";
    return 0;
}
