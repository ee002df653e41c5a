/**
 * @file
 * Scenario: an SoC architect sizing the flash chiplet. Sweep channel
 * and chip counts, simulate the target workload on each candidate,
 * and report the cheapest configurations that meet a decode-speed
 * goal — the kind of exploration Table II's S/M/L presets came from.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "common/table.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/presets.h"
#include "core/sweep.h"
#include "llm/model_config.h"

using namespace camllm;

int
main()
{
    const llm::ModelConfig model = llm::llama2_70b();
    const double target_tok_s = 3.0; // interactive floor
    const double weight_gb =
        double(llm::QuantSpec::of(llm::QuantMode::W8A8)
                   .weightBytes(model.totalParams())) /
        1e9;

    std::printf("Goal: run %s at >= %.1f token/s as cheaply as"
                " possible.\n\n",
                model.name.c_str(), target_tok_s);

    Table t("design-space sweep (candidates meeting/missing target)");
    t.header({"channels", "chips/ch", "cores", "tok/s", "channel util",
              "mem cost ($)", "meets target"});

    struct Candidate
    {
        std::uint32_t ch, chips;
        double tok_s, cost;
    };
    std::vector<Candidate> winners;

    // Enumerate the grid, co-simulate every candidate on the sweep
    // pool, then rank; result order matches the enumeration.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> grid;
    for (std::uint32_t ch : {8u, 16u, 32u, 64u})
        for (std::uint32_t chips : {2u, 4u, 8u})
            grid.emplace_back(ch, chips);

    const auto stats = core::ParallelSweep().map<core::TokenStats>(
        grid.size(), [&](std::size_t i) {
            core::CamConfig cfg =
                core::presetCustom(grid[i].first, grid[i].second);
            return core::CambriconEngine(cfg, model).decodeToken();
        });

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto [ch, chips] = grid[i];
        const core::TokenStats &s = stats[i];
        core::CamConfig cfg = core::presetCustom(ch, chips);

        // Memory BOM: weights in flash + KV-cache DRAM.
        core::Bom bom = core::camllmBom(weight_gb, 2.0);
        const bool ok = s.tokens_per_s >= target_tok_s;
        if (ok)
            winners.push_back({ch, chips, s.tokens_per_s, bom.totalUsd()});
        t.row({Table::fmtInt(ch), Table::fmtInt(chips),
               Table::fmtInt(std::uint64_t(ch) *
                             cfg.flash.geometry.coresPerChannel()),
               Table::fmt(s.tokens_per_s, 2),
               Table::fmtPercent(s.avg_channel_util, 0),
               Table::fmt(bom.totalUsd(), 2), ok ? "yes" : "no"});
    }
    t.print(std::cout);

    if (!winners.empty()) {
        const auto *best = &winners[0];
        for (const auto &w : winners)
            if (w.ch * w.chips < best->ch * best->chips)
                best = &w;
        std::printf("\nSmallest qualifying design: %u channels x %u"
                    " chips (%.2f token/s).\nThe paper's Cam-LLM-L"
                    " (32x8) sits just above this point.\n",
                    best->ch, best->chips, best->tok_s);
    }
    return 0;
}
