/**
 * @file
 * Figure 13: decode speed of Cambricon-LLM-S under the planner's
 * optimal 256x2048 tile vs the forced 128x4096 and 4096x128 shapes.
 */

#include <iostream>

#include "bench_util.h"

using namespace camllm;

int
main()
{
    bench::banner("Fig 13 tile-shape sensitivity (Cam-LLM-S)");

    struct Shape
    {
        const char *label;
        std::optional<core::TileShape> forced;
    };
    const Shape shapes[] = {
        {"256x2048 (ours)", std::nullopt},
        {"128x4096", core::TileShape{128, 4096}},
        {"4096x128", core::TileShape{4096, 128}},
    };

    auto models = llm::optFamily();
    for (const auto &m : llm::llamaFamily())
        models.push_back(m);

    Table t("Fig 13: decode speed (token/s) under forced tile shapes");
    std::vector<std::string> head = {"tile"};
    for (const auto &m : models)
        head.push_back(m.name);
    t.header(head);

    // All shape x model points are independent: sweep them in parallel
    // and rebuild the rows from the order-preserving result vector.
    std::vector<bench::SweepJob> jobs;
    for (const auto &s : shapes)
        for (const auto &m : models) {
            core::CamConfig cfg = core::presetS();
            cfg.forced_tile = s.forced;
            jobs.emplace_back(cfg, m);
        }
    const auto stats = bench::runSweep(jobs);

    std::vector<std::vector<double>> speeds;
    std::size_t j = 0;
    for (const auto &s : shapes) {
        std::vector<std::string> row = {s.label};
        std::vector<double> vals;
        for (std::size_t i = 0; i < models.size(); ++i) {
            const double v = stats[j++].tokens_per_s;
            vals.push_back(v);
            row.push_back(Table::fmt(v, 2));
        }
        speeds.push_back(std::move(vals));
        t.row(row);
    }
    t.print(std::cout);

    for (std::size_t s = 1; s < 3; ++s) {
        double gain = 0.0;
        for (std::size_t i = 0; i < models.size(); ++i)
            gain += speeds[0][i] / speeds[s][i] - 1.0;
        std::cout << "average advantage of ours over " << shapes[s].label
                  << ": "
                  << Table::fmtPercent(gain / double(models.size()))
                  << "\n";
    }

    std::cout << "\nShape check (paper): the optimal 256x2048 tile"
                 " outperforms 128x4096 by\n~17.5% and 4096x128 by"
                 " ~24.7% on average.\n";
    return 0;
}
