#include "decode_stream.h"

#include <algorithm>

#include "common/logging.h"
#include "core/npu_arbiter.h"

namespace camllm::core {

DecodeStream::DecodeStream(const Env &env, llm::KvView kv_view)
    : env_(env), quant_(llm::QuantSpec::of(env.cfg->quant)),
      kv_view_(kv_view), read_budget_(env.cfg->npu.weight_buffer_bytes)
{
    client_ = env_.fs->connect(
        [this](const flash::Completion &c) { onCompletion(c); });
}

TokenStats
DecodeStream::capture() const
{
    TokenStats c = own_;
    c.token_time = env_.eq->now();
    c.busy_ticks = env_.fs->busBusySum();
    c.channel_bytes_high = env_.fs->channelBytesHigh();
    c.channel_bytes_low = env_.fs->channelBytesLow();
    c.dram_bytes = env_.dram->bytesMoved();
    c.array_read_bytes =
        env_.fs->arrayReads() *
        std::uint64_t(env_.cfg->flash.geometry.page_bytes);
    c.pages_computed = env_.fs->pagesComputed();
    c.pages_read = env_.fs->pagesRead();
    return c;
}

std::uint64_t
DecodeStream::npuRows(const TilePlan &plan) const
{
    // Batched prefill GeMM runs wholly on the NPU.
    return prefillMode() ? plan.rows : plan.npu_rows;
}

void
DecodeStream::abortUnit()
{
    CAMLLM_ASSERT(!aborted_, "stream aborted twice");
    aborted_ = true;
    env_.fs->disconnect(client_);
    done_ = nullptr;
    done_ops_all_ = true;
}

void
DecodeStream::onCompletion(const flash::Completion &c)
{
    if (aborted_)
        return;
    auto &s = st_[c.op_id];
    switch (c.kind) {
      case flash::Completion::Kind::RcResult:
        CAMLLM_ASSERT(s.rc_remaining > 0);
        --s.rc_remaining;
        break;
      case flash::Completion::Kind::ReadData:
        CAMLLM_ASSERT(s.read_remaining >= c.bytes);
        s.read_remaining -= c.bytes;
        break;
    }
    maybeCompleteGemv(std::uint32_t(c.op_id));
}

bool
DecodeStream::contendedNpu() const
{
    return env_.npu->contended();
}

const std::vector<std::uint64_t> &
DecodeStream::kvSegmentsFor(const llm::Op &op)
{
    // Map the op onto its logical token range: attention streams the
    // kv_base + tokens entries it spans from token 0; an append writes
    // the positions this unit produced.
    const bool append = op.kind == llm::OpKind::KvAppend;
    const std::uint32_t start = append ? unit_.kv_base : 0;
    const std::uint32_t count =
        append ? unit_.tokens : unit_.kv_base + unit_.tokens;
    kv_segs_.clear();
    llm::kvSegmentBytes(kv_view_, op.kv_bytes, start, count,
                        kv_segs_);
    return kv_segs_;
}

void
DecodeStream::issueKvDram(std::uint32_t id,
                          const std::vector<std::uint64_t> &segs,
                          std::function<void()> done)
{
    auto &s = st_[id];
    CAMLLM_ASSERT(s.dram_remaining == 0);
    s.dram_remaining = std::uint32_t(segs.size());
    for (std::uint64_t seg : segs)
        env_.dram->request(seg, [this, id, done] {
            CAMLLM_ASSERT(st_[id].dram_remaining > 0);
            if (--st_[id].dram_remaining == 0)
                done();
        });
}

void
DecodeStream::startUnit(const Unit &unit, TokenDone done)
{
    CAMLLM_ASSERT(done_ops_all_, "unit already in flight");
    CAMLLM_ASSERT(!aborted_, "unit started on an aborted stream");
    CAMLLM_ASSERT(unit.tokens > 0);
    CAMLLM_ASSERT(unit.cls == flash::WorkClass::Prefill ||
                      unit.cls == flash::WorkClass::Recompute ||
                      (unit.cls == flash::WorkClass::Decode &&
                       unit.tokens == 1 && unit.emits_token),
                  "not a prefill chunk, recompute chunk or decode step");
    const CamConfig &cfg = *env_.cfg;
    const llm::ModelConfig &model = *env_.model;

    unit_ = unit;
    done_ = std::move(done);
    done_ops_all_ = false;
    start_ = capture();

    const std::uint32_t layers =
        std::min(model.n_layers, cfg.sample_layers);
    const bool extrapolate = model.n_layers > layers;
    if (extrapolate)
        CAMLLM_ASSERT(layers >= 3,
                      "need >= 3 sampled layers to extrapolate");
    graph_ = llm::buildUnitGraph(model, unit.kv_base, unit.tokens, quant_,
                                 layers, unit.emits_token);

    const std::size_t n = graph_.ops.size();
    st_.assign(n, OpState{});
    dependents_.assign(n, {});
    snap_op_lo_ = -1;
    snap_op_hi_ = -1;
    gemv_order_.clear();
    prefetch_next_ = 0;
    outstanding_read_bytes_ = 0;
    rr_read_channel_ = 0;
    ops_done_ = 0;

    for (std::uint32_t i = 0; i < n; ++i) {
        const llm::Op &op = graph_.ops[i];
        st_[i].remaining_deps = std::uint32_t(op.deps.size());
        for (std::uint32_t d : op.deps)
            dependents_[d].push_back(i);
        if (op.kind == llm::OpKind::GemvWeight)
            gemv_order_.push_back(i);
        if (extrapolate && op.layer == layers - 3)
            snap_op_lo_ = i;
        if (extrapolate && op.layer == layers - 2)
            snap_op_hi_ = i;
    }

    for (std::uint32_t i = 0; i < n; ++i)
        if (st_[i].remaining_deps == 0)
            opReady(i);
}

void
DecodeStream::opReady(std::uint32_t id)
{
    auto &s = st_[id];
    CAMLLM_ASSERT(!s.ready);
    s.ready = true;
    s.ready_tick = env_.eq->now();
    const llm::Op &op = graph_.ops[id];
    const CamConfig &cfg = *env_.cfg;

    switch (op.kind) {
      case llm::OpKind::Sfu:
        own_.npu_flops += op.flops;
        if (contendedNpu()) {
            env_.npu->acquireSfu(cfg.npu.sfuTime(op.sfu_elems),
                                 [this, id] { complete(id); });
            break;
        }
        env_.eq->scheduleIn(cfg.npu.sfuTime(op.sfu_elems),
                            [this, id] { complete(id); });
        break;
      case llm::OpKind::KvAppend:
        issueKvDram(id, kvSegmentsFor(op),
                    [this, id] { complete(id); });
        break;
      case llm::OpKind::KvLoadCompute: {
        own_.npu_flops += op.flops;
        const Tick comp = cfg.npu.computeTime(op.flops);
        const std::vector<std::uint64_t> &segs = kvSegmentsFor(op);
        if (contendedNpu()) {
            // The attention compute occupies the shared array for its
            // full duration; the op finishes when both the KV stream
            // and the array grant have drained.
            s.join_remaining = 2;
            const auto part = [this, id] {
                CAMLLM_ASSERT(st_[id].join_remaining > 0);
                if (--st_[id].join_remaining == 0)
                    complete(id);
            };
            issueKvDram(id, segs, part);
            env_.npu->acquireArray(comp, part);
            break;
        }
        // Compute overlaps the KV stream; the tail past the stream's
        // pure service time (per-block latency included when paged)
        // extends the op.
        Tick serv = 0;
        for (std::uint64_t seg : segs)
            serv += env_.dram->serviceTime(seg);
        const Tick extra = comp > serv ? comp - serv : 0;
        issueKvDram(id, segs, [this, id, extra] {
            if (extra > 0)
                env_.eq->scheduleIn(extra, [this, id] { complete(id); });
            else
                complete(id);
        });
        break;
      }
      case llm::OpKind::GemvWeight:
        issueGemv(id);
        break;
    }
    tryPrefetch();
}

void
DecodeStream::issueGemv(std::uint32_t id)
{
    const llm::Op &op = graph_.ops[id];
    const TilePlan &plan = planFor(op.rows, op.cols);
    auto &s = st_[id];
    const CamConfig &cfg = *env_.cfg;

    const std::uint32_t ch = cfg.flash.geometry.channels;
    const std::uint32_t cc = cfg.flash.geometry.coresPerChannel();
    const std::uint32_t E = elemsPerPage();
    const double act_bytes = quant_.act_bits / 8.0;

    // In prefill nothing goes to flash (cores cannot batch positions).
    const std::uint64_t units = prefillMode() ? 0 : plan.flash_core_rows;

    std::uint64_t rc_expected = 0;
    if (units > 0) {
        const std::uint64_t n_full_tiles = units / cc;
        const std::uint32_t rem_cores = std::uint32_t(units % cc);

        for (std::uint32_t ct = 0; ct < plan.n_col_tiles; ++ct) {
            const std::uint64_t w_off = std::uint64_t(ct) * plan.tile.w;
            const std::uint64_t w_t =
                std::min<std::uint64_t>(plan.tile.w, op.cols - w_off);
            const auto wc_t = std::uint32_t((w_t + ch - 1) / ch);
            const auto in_bytes = std::uint32_t(
                std::max(1.0, wc_t * act_bytes + 0.5));
            const auto out_b = std::uint32_t(
                std::max<std::uint32_t>(1, plan.hpc *
                                               cfg.out_elem_bytes));
            const Tick comp = cfg.flash.timing.computeTime(
                std::uint64_t(plan.hpc) * wc_t, E);

            auto submit = [&](std::uint32_t cores) {
                flash::RcTileWork tile;
                tile.client = client_;
                tile.cls = unit_.cls;
                tile.op_id = id;
                tile.cores_used = cores;
                tile.input_bytes = in_bytes;
                tile.out_bytes_per_core = out_b;
                tile.compute_time = comp;
                for (std::uint32_t c = 0; c < ch; ++c)
                    env_.fs->submitTile(c, tile);
                rc_expected += std::uint64_t(cores) * ch;
            };
            for (std::uint64_t ft = 0; ft < n_full_tiles; ++ft)
                submit(cc);
            if (rem_cores > 0)
                submit(rem_cores);
        }
    }
    s.rc_remaining = rc_expected;
    s.rc_issued = true;

    const std::uint64_t flash_rows = op.rows - npuRows(plan);
    own_.flash_flops += 2.0 * double(flash_rows) * double(op.cols);
    own_.weight_bytes_flash += quant_.weightBytes(flash_rows * op.cols);

    if (!s.reads_issued)
        issueReads(id, plan);
    maybeCompleteGemv(id);
}

void
DecodeStream::issueReads(std::uint32_t id, const TilePlan &plan)
{
    auto &s = st_[id];
    CAMLLM_ASSERT(!s.reads_issued);
    s.reads_issued = true;

    const std::uint64_t npu_rows = npuRows(plan);
    const std::uint64_t bytes = quant_.weightBytes(npu_rows * plan.cols);
    s.read_total = bytes;
    s.read_remaining = bytes;
    if (bytes == 0)
        return;

    own_.npu_flops += 2.0 * double(npu_rows) * double(plan.cols) *
                      graph_.ops[id].npu_compute_scale;
    own_.weight_bytes_npu += bytes;
    outstanding_read_bytes_ += bytes;

    flash::ReadPageJob job;
    job.client = client_;
    job.cls = unit_.cls;
    job.op_id = id;
    rr_read_channel_ = env_.fs->submitPageReads(job, bytes, rr_read_channel_);
}

void
DecodeStream::maybeCompleteGemv(std::uint32_t id)
{
    if (aborted_)
        return;
    auto &s = st_[id];
    if (s.completed || !s.ready || !s.rc_issued)
        return;
    if (s.rc_remaining != 0 || s.read_remaining != 0)
        return;
    s.completed = true;

    // Pipeline drain: the NPU multiplies the final streamed page and
    // reduces the per-channel partial sums of the flash share. When
    // the op's compute is scaled (prefill GeMM), completion further
    // waits until the streaming-overlapped compute finishes:
    // max(stream done, ready + total NPU compute).
    const llm::Op &op = graph_.ops[id];
    const TilePlan &plan = planFor(op.rows, op.cols);
    const CamConfig &cfg = *env_.cfg;
    const std::uint64_t flash_rows = op.rows - npuRows(plan);
    const double drain_flops =
        2.0 * double(elemsPerPage()) +
        double(cfg.flash.geometry.channels) * double(flash_rows);
    Tick done = env_.eq->now() + cfg.npu.computeTime(drain_flops);

    const double npu_flops = 2.0 * double(npuRows(plan)) *
                             double(op.cols) * op.npu_compute_scale;
    done = std::max(done,
                    s.ready_tick + cfg.npu.computeTime(npu_flops));
    if (contendedNpu()) {
        // The compute tail that outlives the weight stream is array
        // time this stream must reserve; the streaming-overlapped
        // portion is already charged to the op's span. Under
        // contention the tail queues behind neighbors' grants.
        env_.npu->acquireArray(done - env_.eq->now(),
                               [this, id] { complete(id); });
        return;
    }
    env_.eq->schedule(done, [this, id] { complete(id); });
}

void
DecodeStream::complete(std::uint32_t id)
{
    if (aborted_)
        return;
    auto &s = st_[id];
    const llm::Op &op = graph_.ops[id];
    if (op.kind != llm::OpKind::GemvWeight) {
        CAMLLM_ASSERT(!s.completed);
        s.completed = true;
    } else {
        outstanding_read_bytes_ -= s.read_total;
    }

    ++ops_done_;
    const bool last = ops_done_ == graph_.ops.size();

    // Layer-boundary snapshots for steady-state extrapolation.
    if (snap_op_lo_ == std::int64_t(id))
        snap_lo_ = capture();
    if (snap_op_hi_ == std::int64_t(id))
        snap_hi_ = capture();

    for (std::uint32_t dep : dependents_[id]) {
        CAMLLM_ASSERT(st_[dep].remaining_deps > 0);
        if (--st_[dep].remaining_deps == 0)
            opReady(dep);
    }
    tryPrefetch();
    if (last)
        finishUnit();
}

void
DecodeStream::tryPrefetch()
{
    if (!env_.cfg->prefetch)
        return;
    while (prefetch_next_ < gemv_order_.size()) {
        const std::uint32_t id = gemv_order_[prefetch_next_];
        if (st_[id].reads_issued) {
            ++prefetch_next_;
            continue;
        }
        const llm::Op &op = graph_.ops[id];
        const TilePlan &plan = planFor(op.rows, op.cols);
        const std::uint64_t bytes =
            quant_.weightBytes(npuRows(plan) * plan.cols);
        if (bytes > 0 &&
            outstanding_read_bytes_ + bytes > read_budget_)
            break;
        issueReads(id, plan);
        ++prefetch_next_;
    }
}

void
DecodeStream::finishUnit()
{
    const llm::ModelConfig &model = *env_.model;
    const std::uint32_t layers = graph_.n_layers;

    TokenStats out = capture() - start_;
    out.simulated_layers = layers;
    if (layers < model.n_layers) {
        out.addScaled(snap_hi_ - snap_lo_, model.n_layers - layers);
        out.extrapolated = true;
    }
    const double t = double(out.token_time);
    if (out.token_time > 0) {
        out.tokens_per_s = double(unit_.tokens) * double(kSec) / t;
        out.avg_channel_util =
            out.busy_ticks /
            (t * double(env_.cfg->flash.geometry.channels));
    }

    done_ops_all_ = true;
    // The callback may immediately start the next unit (continuous
    // batching), so hand control over only after our state is settled.
    TokenDone done = std::move(done_);
    done_ = nullptr;
    done(out);
}

} // namespace camllm::core
