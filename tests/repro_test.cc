/**
 * @file
 * Reproduction regression tests: pin every headline number of the
 * paper's evaluation to a band around the currently-measured value so
 * refactors cannot silently drift the reproduction. Bands are
 * generous where the paper's own number differs from ours, tight
 * where we match. The gaps are not explained yet: ROADMAP item 9
 * (a closed-form per-token model) is to name each one and tighten
 * its band.
 */

#include <gtest/gtest.h>

#include "baselines/flexgen.h"
#include "baselines/mlc_llm.h"
#include "baselines/roofline.h"
#include "core/energy.h"
#include "core/engine.h"
#include "core/presets.h"
#include "llm/model_config.h"

namespace camllm {
namespace {

double
camSpeed(const core::CamConfig &cfg, const llm::ModelConfig &m)
{
    return core::CambriconEngine(cfg, m).decodeToken().tokens_per_s;
}

struct Fig9Case
{
    const char *preset; // "S" / "M" / "L"
    int model_index;    // into optFamily()
    double paper;
    double tolerance;   // relative
};

class Fig9Opt : public ::testing::TestWithParam<Fig9Case>
{
};

TEST_P(Fig9Opt, WithinBandOfPaper)
{
    const Fig9Case &c = GetParam();
    core::CamConfig cfg = c.preset[0] == 'S'
                              ? core::presetS()
                              : (c.preset[0] == 'M' ? core::presetM()
                                                    : core::presetL());
    const double v = camSpeed(cfg, llm::optFamily()[c.model_index]);
    EXPECT_GT(v, c.paper * (1.0 - c.tolerance));
    EXPECT_LT(v, c.paper * (1.0 + c.tolerance));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Fig9Opt,
    ::testing::Values(
        Fig9Case{"S", 0, 3.56, 0.25}, Fig9Case{"S", 1, 1.9, 0.25},
        Fig9Case{"S", 2, 0.8, 0.25}, Fig9Case{"S", 3, 0.4, 0.30},
        Fig9Case{"M", 0, 11.0, 0.25}, Fig9Case{"M", 1, 4.7, 0.35},
        Fig9Case{"M", 2, 2.5, 0.30}, Fig9Case{"M", 3, 1.15, 0.30},
        Fig9Case{"L", 0, 36.3, 0.30}, Fig9Case{"L", 1, 14.2, 0.35},
        Fig9Case{"L", 2, 7.6, 0.30}, Fig9Case{"L", 3, 2.59, 0.60}),
    [](const auto &info) {
        return std::string(info.param.preset) + "_opt" +
               std::to_string(info.param.model_index);
    });

TEST(Repro, HeadlineSeventyB)
{
    // Paper abstract: 3.44 token/s for the 70B model.
    const double v = camSpeed(core::presetL(), llm::llama2_70b());
    EXPECT_GT(v, 3.44 * 0.7);
    EXPECT_LT(v, 3.44 * 1.4);
}

TEST(Repro, HeadlineSevenB)
{
    // Paper abstract: 36.34 token/s for 7B-class models.
    const double v = camSpeed(core::presetL(), llm::opt6_7b());
    EXPECT_GT(v, 36.34 * 0.7);
    EXPECT_LT(v, 36.34 * 1.2);
}

TEST(Repro, HeadlineSpeedupBand)
{
    // Paper abstract: 22x to 45x over flash-offloading baselines.
    auto quant = llm::QuantSpec::of(llm::QuantMode::W8A8);
    baselines::FlexGenConfig fg;
    for (int i : {0, 3}) {
        const llm::ModelConfig m = llm::optFamily()[std::size_t(i)];
        const double base =
            baselines::flexgenDecode(m, quant, fg).tokens_per_s;
        const double speedup = camSpeed(core::presetL(), m) / base;
        EXPECT_GT(speedup, 20.0) << m.name;
        EXPECT_LT(speedup, 60.0) << m.name;
    }
}

TEST(Repro, Fig9bMlcRow)
{
    auto mlc7 = baselines::mlcLlmDecode(llm::llama2_7b());
    EXPECT_NEAR(mlc7.tokens_per_s, 7.58, 7.58 * 0.15);
    EXPECT_TRUE(baselines::mlcLlmDecode(llm::llama2_13b()).oom);
    EXPECT_TRUE(baselines::mlcLlmDecode(llm::llama2_70b()).oom);
}

TEST(Repro, Fig11AverageGains)
{
    // Paper: W4A16 gains 85.3% on S, 47.9% on L (we measure ~80/46).
    auto avg_gain = [](const core::CamConfig &base) {
        double sum = 0.0;
        int n = 0;
        for (const auto &m : llm::optFamily()) {
            core::CamConfig w4 = base;
            w4.quant = llm::QuantMode::W4A16;
            sum += camSpeed(w4, m) / camSpeed(base, m) - 1.0;
            ++n;
        }
        return sum / n;
    };
    const double s_gain = avg_gain(core::presetS());
    const double l_gain = avg_gain(core::presetL());
    EXPECT_GT(s_gain, 0.55);
    EXPECT_LT(s_gain, 1.10);
    EXPECT_GT(l_gain, 0.30);
    EXPECT_LT(l_gain, 0.70);
    EXPECT_GT(s_gain, l_gain); // the structural claim
}

TEST(Repro, Fig12SlicingBand)
{
    // Paper: 1.6-1.8x; our channel baseline is politer: 1.35-1.5x.
    core::CamConfig without = core::presetS();
    without.slicing = false;
    const double speedup = camSpeed(core::presetS(), llm::opt30b()) /
                           camSpeed(without, llm::opt30b());
    EXPECT_GT(speedup, 1.3);
    EXPECT_LT(speedup, 1.9);
}

TEST(Repro, Fig14TilingBand)
{
    // Paper: 1.3-1.4x.
    core::CamConfig without = core::presetS();
    without.hybrid_tiling = false;
    const double speedup = camSpeed(core::presetS(), llm::opt30b()) /
                           camSpeed(without, llm::opt30b());
    EXPECT_GT(speedup, 1.25);
    EXPECT_LT(speedup, 1.55);
}

TEST(Repro, Fig15SaturationSignature)
{
    // Chip scaling: early doublings gain >1.5x, the 64->128 step
    // gains <1.35x on OPT-6.7B (paper Fig 15a flattening).
    auto v = [&](std::uint32_t chips) {
        return camSpeed(core::presetCustom(8, chips), llm::opt6_7b());
    };
    EXPECT_GT(v(4) / v(2), 1.5);
    EXPECT_LT(v(128) / v(64), 1.35);
}

TEST(Repro, Fig16Bands)
{
    auto quant = llm::QuantSpec::of(llm::QuantMode::W8A8);
    baselines::FlexGenConfig fg;
    auto base = baselines::flexgenDecode(llm::opt6_7b(), quant, fg);
    auto cam = core::CambriconEngine(core::presetS(), llm::opt6_7b())
                   .decodeToken();
    // Transfer reduction: paper 9.7-11.6x; we measure ~9x.
    const double red =
        double(base.transfer_bytes) / double(cam.transferBytes());
    EXPECT_GT(red, 7.0);
    EXPECT_LT(red, 13.0);
    // Energy ratio: paper ~67%; we measure ~58%.
    const double ratio =
        core::computeEnergy(cam).totalJ() / base.energy_j;
    EXPECT_GT(ratio, 0.45);
    EXPECT_LT(ratio, 0.80);
}

TEST(Repro, Fig1DecodeAi)
{
    auto quant = llm::QuantSpec::of(llm::QuantMode::W8A8);
    EXPECT_NEAR(baselines::llmDecodeAi(llm::opt6_7b(), quant, 512),
                2.0, 0.1);
}

TEST(Repro, TileShapeMatchesFig13Label)
{
    // The paper names 256x2048 as Cam-LLM-S's optimal tile.
    auto plan = core::CambriconEngine(core::presetS(), llm::opt6_7b())
                    .planFor(16384, 16384);
    EXPECT_EQ(plan.tile.h, 256u);
    EXPECT_EQ(plan.tile.w, 2048u);
}

} // namespace
} // namespace camllm
