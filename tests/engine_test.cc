/**
 * @file
 * Tests for the end-to-end Cambricon-LLM engine: determinism,
 * conservation of weight traffic, analytic-throughput agreement,
 * ablation orderings, extrapolation correctness and golden decode
 * and prefill stats.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/area_model.h"
#include "core/cost_model.h"
#include "core/energy.h"
#include "core/engine.h"
#include "core/presets.h"
#include "llm/model_config.h"

namespace camllm::core {
namespace {

TEST(Engine, Deterministic)
{
    CamConfig cfg = presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats a = e.decodeToken();
    TokenStats b = e.decodeToken();
    EXPECT_EQ(a.token_time, b.token_time);
    EXPECT_EQ(a.channel_bytes_high, b.channel_bytes_high);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

// Golden decode and prefill stats on presetS x OPT-6.7B, recorded
// when the engine still assembled its own device apart from
// Scheduler::serve(). The engine is now a one-request view of the
// scheduler, so these numbers are the independent reference that
// both paths must keep reproducing to the tick and the byte. The
// decode step at context 512 attends to its own new KV entry too, so
// its KV load covers 513 entries per layer.
TEST(Engine, DecodeAndPrefillReproduceGoldenStats)
{
    const CambriconEngine e(presetS(), llm::opt6_7b());

    const TokenStats d = e.decodeToken();
    EXPECT_EQ(d.token_time, 286591615u);
    EXPECT_EQ(d.pages_computed, 279520u);
    EXPECT_EQ(d.pages_read, 126264u);
    EXPECT_EQ(d.dram_bytes, 134742016u);
    EXPECT_EQ(d.channel_bytes_high, 35878912u);
    EXPECT_EQ(d.channel_bytes_low, 2068709376u);
    EXPECT_DOUBLE_EQ(d.avg_channel_util, 0.97725237355600936);
    EXPECT_EQ(d.array_read_bytes, 6648365056u);
    EXPECT_DOUBLE_EQ(d.npu_flops, 4407698432.0);
    EXPECT_DOUBLE_EQ(d.flash_flops, 9159311360.0);
    EXPECT_EQ(d.weight_bytes_flash, 4579655680u);
    EXPECT_EQ(d.weight_bytes_npu, 2068709376u);
    EXPECT_DOUBLE_EQ(d.tokens_per_s, 3.4892856163987909);
    EXPECT_TRUE(d.extrapolated);
    EXPECT_EQ(d.simulated_layers, 4u);

    const TokenStats p = e.prefill(512);
    EXPECT_EQ(p.token_time, 3083208176u);
    EXPECT_EQ(p.pages_computed, 0u);
    EXPECT_EQ(p.pages_read, 405784u);
    EXPECT_EQ(p.dram_bytes, 268435456u);
    EXPECT_EQ(p.channel_bytes_high, 0u);
    EXPECT_EQ(p.channel_bytes_low, 6648365056u);
    EXPECT_DOUBLE_EQ(p.avg_channel_util, 0.28270035049362169);
    EXPECT_EQ(p.array_read_bytes, 6648365056u);
    EXPECT_DOUBLE_EQ(p.npu_flops, 6666874523648.0);
    EXPECT_DOUBLE_EQ(p.flash_flops, 0.0);
    EXPECT_EQ(p.weight_bytes_flash, 0u);
    EXPECT_EQ(p.weight_bytes_npu, 6648365056u);
    EXPECT_DOUBLE_EQ(p.tokens_per_s, 166.06079472202333);
    EXPECT_TRUE(p.extrapolated);
    EXPECT_EQ(p.simulated_layers, 4u);
}

// Golden generate() stats. A request {prompt P, decode_tokens R}
// serves its decode steps at kv_base P .. P+R-1, and generate()
// integrates the reply from the two endpoint steps of that range, so
// these values pin which contexts the endpoints attend over.
TEST(Engine, GenerateReproducesGoldenStats)
{
    struct Golden
    {
        std::uint32_t prompt, reply;
        Tick first_time;
        std::uint64_t first_dram;
        double first_flops;
        Tick last_time;
        std::uint64_t last_dram;
        double last_flops;
        Tick total_time;
        double decode_tok_s;
    };
    struct Case
    {
        CamConfig cfg;
        llm::ModelConfig model;
        Golden golden[3];
    };
    const Case cases[] = {
        {presetS(),
         llm::opt6_7b(),
         {{128, 32, 284190719u, 34078720u, 4205978624.0, 284224895u,
           42205184u, 4222263296.0, 10028026800u, 3.5185521838954972},
          {64, 1024, 284190719u, 17301504u, 4172358656.0, 290647039u,
           285474816u, 4709752832.0, 295219811632u, 3.479242572649516},
          {1000, 7, 290028415u, 262668288u, 4664050688.0, 290097151u,
           264241152u, 4667202560.0, 8215457001u, 3.44752949570921}}},
        {presetL(),
         llm::llama2_70b(),
         {{128, 32, 249625988u, 21299200u, 13346886656.0, 249797828u,
           26378240u, 13428310016.0, 14447328176u, 4.004614789936249},
          {64, 1024, 249110468u, 10813440u, 13178786816.0, 255984068u,
           178421760u, 15865757696.0, 261864653488u,
           3.9596547922268557},
          {1000, 7, 255296708u, 164167680u, 15637246976.0, 255468548u,
           165150720u, 15653006336.0, 53858318348u,
           3.915693122243225}}},
        {presetM(),
         llm::llama2_13b(),
         {{128, 32, 170086780u, 53248000u, 4770008640.0, 170430460u,
           65945600u, 4795453440.0, 6608702816u, 5.8734177453100465},
          {64, 1024, 169352860u, 27033600u, 4717477440.0, 180654940u,
           446054400u, 5557155840.0, 180085479856u,
           5.7141583701848928},
          {1000, 7, 179709820u, 410419200u, 5485746240.0, 179795740u,
           412876800u, 5490671040.0, 10127993636u,
           5.5631962966024782}}},
    };
    for (const Case &c : cases) {
        const CambriconEngine e(c.cfg, c.model);
        for (const Golden &g : c.golden) {
            SCOPED_TRACE(c.model.name + " P=" + std::to_string(g.prompt) +
                         " R=" + std::to_string(g.reply));
            const GenerateStats s = e.generate(g.prompt, g.reply);
            EXPECT_EQ(s.first_decode.token_time, g.first_time);
            EXPECT_EQ(s.first_decode.dram_bytes, g.first_dram);
            EXPECT_DOUBLE_EQ(s.first_decode.npu_flops, g.first_flops);
            EXPECT_EQ(s.last_decode.token_time, g.last_time);
            EXPECT_EQ(s.last_decode.dram_bytes, g.last_dram);
            EXPECT_DOUBLE_EQ(s.last_decode.npu_flops, g.last_flops);
            EXPECT_EQ(s.total_time, g.total_time);
            EXPECT_DOUBLE_EQ(s.decode_tokens_per_s, g.decode_tok_s);
        }
    }
}

TEST(Engine, WeightTrafficConservation)
{
    // Flash-computed bytes + NPU-read bytes must cover every weight
    // byte the decode step touches (within tile-padding slack).
    CamConfig cfg = presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats s = e.decodeToken();
    const double touched =
        double(s.weight_bytes_flash + s.weight_bytes_npu);
    const double expected = double(e.decodeWeightBytes());
    EXPECT_NEAR(touched / expected, 1.0, 0.02);
}

TEST(Engine, SpeedMatchesAnalyticRateBallpark)
{
    // Cam-LLM-S aggregate weight throughput is ~25 GB/s; OPT-6.7B at
    // 6.6 GB/token must land near 3.5 tok/s.
    CamConfig cfg = presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats s = e.decodeToken();
    EXPECT_GT(s.tokens_per_s, 2.5);
    EXPECT_LT(s.tokens_per_s, 4.5);
}

TEST(Engine, ExtrapolationMatchesFullSimulation)
{
    // Simulating 4 layers and extrapolating must agree with a full
    // 32-layer simulation within a couple percent.
    CamConfig sampled = presetS();
    sampled.sample_layers = 4;
    CamConfig full = presetS();
    full.sample_layers = 64; // >= model depth: no extrapolation

    llm::ModelConfig model = llm::opt6_7b();
    TokenStats a = CambriconEngine(sampled, model).decodeToken();
    TokenStats b = CambriconEngine(full, model).decodeToken();
    EXPECT_TRUE(a.extrapolated);
    EXPECT_FALSE(b.extrapolated);
    EXPECT_NEAR(double(a.token_time) / double(b.token_time), 1.0, 0.03);
    EXPECT_NEAR(double(a.dram_bytes) / double(b.dram_bytes), 1.0, 0.03);
}

TEST(Engine, ChannelUtilizationInPaperRange)
{
    // Fig 12b/14b: the full design keeps channels ~79-91% busy.
    CamConfig cfg = presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats s = e.decodeToken();
    EXPECT_GT(s.avg_channel_util, 0.65);
    EXPECT_LE(s.avg_channel_util, 1.0);
}

TEST(Engine, NoTilingCollapsesChannelUtilization)
{
    // Fig 14b: without the NPU share, channels carry only the tiny
    // rc vectors (~2-3% busy).
    CamConfig cfg = presetS();
    cfg.hybrid_tiling = false;
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats s = e.decodeToken();
    EXPECT_LT(s.avg_channel_util, 0.10);
    EXPECT_EQ(s.weight_bytes_npu, 0u);
}

TEST(Engine, TilingBeatsNoTiling)
{
    // Fig 14a: hybrid tiling accelerates decode by ~1.3-1.4x.
    CamConfig hybrid = presetS();
    CamConfig flash_only = presetS();
    flash_only.hybrid_tiling = false;
    llm::ModelConfig model = llm::opt6_7b();
    TokenStats h = CambriconEngine(hybrid, model).decodeToken();
    TokenStats f = CambriconEngine(flash_only, model).decodeToken();
    const double speedup = h.tokens_per_s / f.tokens_per_s;
    EXPECT_GT(speedup, 1.15);
    EXPECT_LT(speedup, 1.8);
}

TEST(Engine, SlicingBeatsNoSlicing)
{
    // Fig 12a: read-request slicing speeds decode up by ~1.6-1.8x.
    CamConfig sliced = presetS();
    CamConfig monolithic = presetS();
    monolithic.slicing = false;
    llm::ModelConfig model = llm::opt6_7b();
    TokenStats s = CambriconEngine(sliced, model).decodeToken();
    TokenStats m = CambriconEngine(monolithic, model).decodeToken();
    const double speedup = s.tokens_per_s / m.tokens_per_s;
    EXPECT_GT(speedup, 1.2);
    EXPECT_LT(speedup, 2.2);
    // Fig 12b: losing Slice Control collapses channel usage.
    EXPECT_LT(m.avg_channel_util, s.avg_channel_util - 0.15);
}

TEST(Engine, OptimalTileBeatsForcedShapes)
{
    // Fig 13: 256x2048 outperforms 128x4096 and 4096x128 on S.
    llm::ModelConfig model = llm::opt6_7b();
    auto speed = [&](std::optional<TileShape> forced) {
        CamConfig cfg = presetS();
        cfg.forced_tile = forced;
        return CambriconEngine(cfg, model).decodeToken().tokens_per_s;
    };
    const double opt = speed(std::nullopt);
    EXPECT_GE(opt * 1.001, speed(TileShape{128, 4096}));
    EXPECT_GE(opt * 1.001, speed(TileShape{4096, 128}));
}

TEST(Engine, LargerConfigsAreFaster)
{
    llm::ModelConfig model = llm::opt6_7b();
    TokenStats s = CambriconEngine(presetS(), model).decodeToken();
    TokenStats m = CambriconEngine(presetM(), model).decodeToken();
    TokenStats l = CambriconEngine(presetL(), model).decodeToken();
    EXPECT_GT(m.tokens_per_s, s.tokens_per_s * 1.5);
    EXPECT_GT(l.tokens_per_s, m.tokens_per_s * 1.5);
}

TEST(Engine, BiggerModelsAreSlower)
{
    CamConfig cfg = presetM();
    double prev = 1e9;
    for (const auto &model : llm::optFamily()) {
        TokenStats s = CambriconEngine(cfg, model).decodeToken();
        EXPECT_LT(s.tokens_per_s, prev) << model.name;
        prev = s.tokens_per_s;
    }
}

TEST(Engine, W4A16IsFasterThanW8A8)
{
    // Fig 11: halving weight bits buys 1.2-2x decode speed.
    llm::ModelConfig model = llm::opt6_7b();
    CamConfig w8 = presetS();
    CamConfig w4 = presetS();
    w4.quant = llm::QuantMode::W4A16;
    TokenStats a = CambriconEngine(w8, model).decodeToken();
    TokenStats b = CambriconEngine(w4, model).decodeToken();
    EXPECT_GT(b.tokens_per_s, a.tokens_per_s * 1.2);
    EXPECT_LT(b.tokens_per_s, a.tokens_per_s * 2.2);
}

TEST(Engine, AlphaEffectiveNearPlanned)
{
    CamConfig cfg = presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats s = e.decodeToken();
    TilePlan p = e.planFor(4096, 4096);
    EXPECT_NEAR(s.alphaEffective(), p.alpha, 0.08);
}

TEST(Engine, DramTrafficMatchesKvCache)
{
    CamConfig cfg = presetS();
    llm::ModelConfig model = llm::opt6_7b();
    CambriconEngine e(cfg, model);
    TokenStats s = e.decodeToken();
    // Score + context KV loads dominate; appends add 2*d per layer.
    const std::uint64_t expected =
        model.kvCacheBytes(cfg.seq_len, 1) +
        2ull * model.n_layers * model.d_model;
    EXPECT_NEAR(double(s.dram_bytes) / double(expected), 1.0, 0.02);
}

TEST(Engine, ArrayReadsCoverFlashShare)
{
    CamConfig cfg = presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats s = e.decodeToken();
    // Every weight byte is read from the NAND array exactly once,
    // whether it is consumed on-die or shipped to the NPU.
    EXPECT_GE(double(s.array_read_bytes),
              double(e.decodeWeightBytes()) * 0.98);
    // Padding (partial pages still read whole) stays bounded.
    EXPECT_LT(double(s.array_read_bytes),
              double(e.decodeWeightBytes()) * 1.25);
}

TEST(Engine, PrefetchHelpsOrIsNeutral)
{
    llm::ModelConfig model = llm::opt66b(); // big KV: real SFU gaps
    CamConfig on = presetL();
    CamConfig off = presetL();
    off.prefetch = false;
    TokenStats a = CambriconEngine(on, model).decodeToken();
    TokenStats b = CambriconEngine(off, model).decodeToken();
    EXPECT_GE(a.tokens_per_s, b.tokens_per_s * 0.999);
}

TEST(Engine, EnergyBreakdownSane)
{
    CamConfig cfg = presetS();
    CambriconEngine e(cfg, llm::opt6_7b());
    TokenStats s = e.decodeToken();
    EnergyBreakdown eb = computeEnergy(s);
    EXPECT_GT(eb.totalJ(), 0.3);
    EXPECT_LT(eb.totalJ(), 3.0);
    // NAND array reads dominate the budget.
    EXPECT_GT(eb.array_j, 0.5 * eb.totalJ());
}

TEST(Engine, SeqLenGrowsDramShareOnly)
{
    llm::ModelConfig model = llm::opt6_7b();
    CamConfig short_ctx = presetS();
    short_ctx.seq_len = 128;
    CamConfig long_ctx = presetS();
    long_ctx.seq_len = 2048;
    TokenStats a = CambriconEngine(short_ctx, model).decodeToken();
    TokenStats b = CambriconEngine(long_ctx, model).decodeToken();
    EXPECT_GT(b.dram_bytes, 10 * a.dram_bytes);
    EXPECT_LT(a.token_time, b.token_time);
    // Weight traffic is context-independent.
    EXPECT_EQ(a.weight_bytes_flash + a.weight_bytes_npu,
              b.weight_bytes_flash + b.weight_bytes_npu);
}

TEST(EngineArea, TableIvComponentModel)
{
    AreaReport r = computeCoreArea();
    EXPECT_NEAR(r.ecu_um2, 496.4, 0.1);
    EXPECT_NEAR(r.pes_um2, 562.0, 1.0);
    EXPECT_NEAR(r.buffers_um2, 58755.1, 100.0);
    EXPECT_NEAR(r.totalUw(), 1935.6, 10.0);
    EXPECT_NEAR(r.area_overhead, 0.012, 0.002);
    EXPECT_NEAR(r.power_overhead, 0.045, 0.005);
}

TEST(EngineCost, TableVNumbers)
{
    Bom cam = camllmBom(80.0, 2.0);
    Bom trad = traditionalBom(80.0, 0.0);
    EXPECT_NEAR(cam.totalUsd(), 43.67, 0.05);
    EXPECT_NEAR(trad.totalUsd(), 194.68, 0.05);
    EXPECT_NEAR(trad.totalUsd() - cam.totalUsd(), 151.01, 0.1);
}

TEST(EngineCost, ChipletAdderCapped)
{
    EXPECT_DOUBLE_EQ(chipletAdderUsd(100.0), 15.0);
    EXPECT_DOUBLE_EQ(chipletAdderUsd(10000.0), 100.0);
}

} // namespace
} // namespace camllm::core
