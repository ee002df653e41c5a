/**
 * @file
 * Figure 15: scalability of decode speed and channel usage with
 * (a/c) chips per channel at 8 channels and (b/d) channel count at 4
 * chips per channel, on OPT-6.7B/13B/30B.
 */

#include <functional>
#include <iostream>

#include "bench_util.h"

using namespace camllm;

namespace {

/**
 * Shared shape of Fig 15(a/c) and (b/d): a model x geometry grid,
 * swept in parallel (every point is an independent co-simulation) and
 * printed in the same row/column order as the sequential loops.
 */
void
sweepGrid(const char *speed_title, const char *util_title,
          const std::vector<std::uint32_t> &points,
          const std::function<core::CamConfig(std::uint32_t)> &make_cfg)
{
    std::vector<llm::ModelConfig> models = {llm::opt6_7b(), llm::opt13b(),
                                            llm::opt30b()};
    Table t(speed_title);
    Table u(util_title);
    std::vector<std::string> head = {"model"};
    for (auto c : points)
        head.push_back(Table::fmtInt(c));
    t.header(head);
    u.header(head);

    std::vector<bench::SweepJob> jobs;
    for (const auto &m : models)
        for (auto c : points)
            jobs.emplace_back(make_cfg(c), m);
    const auto stats = bench::runSweep(jobs);

    std::size_t j = 0;
    for (const auto &m : models) {
        std::vector<std::string> row = {m.name}, urow = {m.name};
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto &s = stats[j++];
            row.push_back(Table::fmt(s.tokens_per_s, 2));
            urow.push_back(Table::fmtPercent(s.avg_channel_util, 0));
        }
        t.row(row);
        u.row(urow);
    }
    t.print(std::cout);
    u.print(std::cout);
}

void
sweepChips()
{
    sweepGrid("Fig 15(a): decode speed vs chips per channel "
              "(8 channels)",
              "Fig 15(c): channel usage vs chips per channel",
              {1, 2, 4, 8, 16, 32, 64, 128},
              [](std::uint32_t c) { return core::presetCustom(8, c); });
}

void
sweepChannels()
{
    sweepGrid("Fig 15(b): decode speed vs channel count (4 chips/ch)",
              "Fig 15(d): channel usage vs channel count",
              {1, 2, 4, 8, 16, 32, 64},
              [](std::uint32_t c) { return core::presetCustom(c, 4); });
}

} // namespace

int
main()
{
    bench::banner("Fig 15 scalability with chips and channels");
    sweepChips();
    sweepChannels();
    std::cout << "\nShape check (paper): speed grows quickly with the"
                 " first few chips then\nsaturates (weights cannot"
                 " engage every core; channel usage falls), while\n"
                 "channel scaling remains near-linear across the whole"
                 " range.\n";
    return 0;
}
