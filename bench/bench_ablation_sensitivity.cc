/**
 * @file
 * Design-choice sensitivity ablations beyond the paper's figures: how
 * decode speed responds to the page read time (tR), the slice
 * granularity, the read-compute tile window, the NPU weight buffer
 * (prefetch depth), and the per-grant command overhead. These are the
 * knobs DESIGN.md calls out as modeling assumptions; the sweeps show
 * which of them the headline results actually depend on.
 */

#include <iostream>

#include "bench_util.h"

using namespace camllm;

namespace {

/** One ablation table: a knob name plus its five config points. */
struct Block
{
    const char *title;
    const char *knob_col;
    std::vector<std::uint64_t> labels;
    std::vector<core::CamConfig> cfgs;
};

} // namespace

int
main()
{
    bench::banner("design-choice sensitivity (Cam-LLM-S, OPT-6.7B)");
    const llm::ModelConfig m = llm::opt6_7b();

    std::vector<Block> blocks;
    {
        Block b{"page read time tR (paper uses 30 us; cites a 20 us "
                "part)",
                "tR (us)", {}, {}};
        for (Tick tr : {20u, 25u, 30u, 40u, 60u}) {
            core::CamConfig cfg = core::presetS();
            cfg.flash.timing.t_read = tr * kUs;
            b.labels.push_back(tr);
            b.cfgs.push_back(cfg);
        }
        blocks.push_back(std::move(b));
    }
    {
        Block b{"slice granularity (Slice Control)", "slice (bytes)",
                {}, {}};
        for (std::uint32_t s : {512u, 1024u, 2048u, 4096u, 8192u}) {
            core::CamConfig cfg = core::presetS();
            cfg.flash.timing.slice_bytes = s;
            b.labels.push_back(s);
            b.cfgs.push_back(cfg);
        }
        blocks.push_back(std::move(b));
    }
    {
        Block b{"read-compute tile window (input-buffer credit)",
                "window", {}, {}};
        for (std::uint32_t w : {1u, 2u, 3u, 4u, 8u}) {
            core::CamConfig cfg = core::presetS();
            cfg.tile_window = w;
            b.labels.push_back(w);
            b.cfgs.push_back(cfg);
        }
        blocks.push_back(std::move(b));
    }
    {
        Block b{"NPU weight buffer (prefetch depth)", "buffer (MB)",
                {}, {}};
        for (std::uint32_t mb : {1u, 2u, 4u, 8u, 16u}) {
            core::CamConfig cfg = core::presetS();
            cfg.npu.weight_buffer_bytes = std::uint64_t(mb) << 20;
            b.labels.push_back(mb);
            b.cfgs.push_back(cfg);
        }
        blocks.push_back(std::move(b));
    }
    {
        Block b{"per-grant command overhead", "overhead (ns)", {}, {}};
        for (Tick ov : {0u, 50u, 100u, 200u, 500u}) {
            core::CamConfig cfg = core::presetS();
            cfg.flash.timing.grant_overhead = ov;
            b.labels.push_back(ov);
            b.cfgs.push_back(cfg);
        }
        blocks.push_back(std::move(b));
    }

    // Baseline plus every knob point in one parallel pass.
    std::vector<bench::SweepJob> jobs;
    jobs.emplace_back(core::presetS(), m);
    for (const Block &b : blocks)
        for (const core::CamConfig &cfg : b.cfgs)
            jobs.emplace_back(cfg, m);
    const auto stats = bench::runSweep(jobs);

    const double base = stats[0].tokens_per_s;
    std::cout << "baseline: " << Table::fmt(base, 2) << " token/s\n\n";

    std::size_t j = 1;
    for (const Block &b : blocks) {
        Table t(b.title);
        t.header({b.knob_col, "token/s", "vs baseline"});
        for (std::size_t i = 0; i < b.cfgs.size(); ++i) {
            const double v = stats[j++].tokens_per_s;
            t.row({Table::fmtInt(b.labels[i]), Table::fmt(v, 2),
                   Table::fmtPercent(v / base - 1.0)});
        }
        t.print(std::cout);
    }

    std::cout << "\nReading: results are first-order in tR (flash is"
                 " the pacing resource), mildly\nsensitive to slice"
                 " size at the extremes, and robust to window, buffer"
                 " and\ncommand-overhead choices — the headline"
                 " numbers do not hinge on those knobs.\n";
    return 0;
}
