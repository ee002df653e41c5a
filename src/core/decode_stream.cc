#include "decode_stream.h"

#include <algorithm>

#include "common/logging.h"
#include "core/npu_arbiter.h"

namespace camllm::core {

StreamCounters
StreamCounters::operator-(const StreamCounters &o) const
{
    StreamCounters d;
    d.t = t - o.t;
    d.busy_sum = busy_sum - o.busy_sum;
    d.ch_high = ch_high - o.ch_high;
    d.ch_low = ch_low - o.ch_low;
    d.dram_bytes = dram_bytes - o.dram_bytes;
    d.array_reads = array_reads - o.array_reads;
    d.pages_computed = pages_computed - o.pages_computed;
    d.pages_read = pages_read - o.pages_read;
    d.npu_flops = npu_flops - o.npu_flops;
    d.flash_flops = flash_flops - o.flash_flops;
    d.wb_flash = wb_flash - o.wb_flash;
    d.wb_npu = wb_npu - o.wb_npu;
    return d;
}

void
StreamCounters::addScaled(const StreamCounters &d, std::uint64_t k)
{
    t += d.t * k;
    busy_sum += d.busy_sum * double(k);
    ch_high += d.ch_high * k;
    ch_low += d.ch_low * k;
    dram_bytes += d.dram_bytes * k;
    array_reads += d.array_reads * k;
    pages_computed += d.pages_computed * k;
    pages_read += d.pages_read * k;
    npu_flops += d.npu_flops * double(k);
    flash_flops += d.flash_flops * double(k);
    wb_flash += d.wb_flash * k;
    wb_npu += d.wb_npu * k;
}

DecodeStream::DecodeStream(const Env &env)
    : env_(env), quant_(llm::QuantSpec::of(env.cfg->quant)),
      read_budget_(env.cfg->npu.weight_buffer_bytes)
{
    client_ = env_.fs->connect(
        [this](const flash::Completion &c) { onCompletion(c); });
}

StreamCounters
DecodeStream::capture() const
{
    StreamCounters c;
    c.t = env_.eq->now();
    c.busy_sum = env_.fs->busBusySum();
    c.ch_high = env_.fs->channelBytesHigh();
    c.ch_low = env_.fs->channelBytesLow();
    c.dram_bytes = env_.dram->bytesMoved();
    c.array_reads = env_.fs->arrayReads();
    c.pages_computed = env_.fs->pagesComputed();
    c.pages_read = env_.fs->pagesRead();
    c.npu_flops = npu_flops_;
    c.flash_flops = flash_flops_;
    c.wb_flash = wb_flash_;
    c.wb_npu = wb_npu_;
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
    // whole accumulated context from token 0; an append writes the
    // positions this unit produced (the chunk in prefill, the one new
    // token in decode).
    std::uint32_t start = 0, count = 0;
    if (op.kind == llm::OpKind::KvAppend) {
        start = prefillMode() ? kv_base_ : seq_;
        count = prefillMode() ? prefill_tokens_ : 1;
    } else {
        start = 0;
        count = prefillMode() ? kv_base_ + prefill_tokens_ : seq_;
    }
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
DecodeStream::startToken(std::uint32_t seq, TokenDone done)
{
    seq_ = seq;
    prefill_tokens_ = 0;
    kv_base_ = 0;
    last_chunk_ = true;
    beginUnit(std::move(done));
}

void
DecodeStream::startPrefillChunk(std::uint32_t chunk_len,
                                std::uint32_t kv_base, bool last_chunk,
                                TokenDone done)
{
    CAMLLM_ASSERT(chunk_len > 0);
    seq_ = kv_base + chunk_len; // context the chunk's attention spans
    prefill_tokens_ = chunk_len;
    kv_base_ = kv_base;
    last_chunk_ = last_chunk;
    beginUnit(std::move(done));
}

void
DecodeStream::beginUnit(TokenDone done)
{
    CAMLLM_ASSERT(done_ops_all_, "token already in flight");
    CAMLLM_ASSERT(!aborted_, "unit started on an aborted stream");
    const CamConfig &cfg = *env_.cfg;
    const llm::ModelConfig &model = *env_.model;

    done_ = std::move(done);
    done_ops_all_ = false;
    token_start_ = env_.eq->now();
    start_ = capture();

    const std::uint32_t layers =
        std::min(model.n_layers, cfg.sample_layers);
    if (model.n_layers > layers)
        CAMLLM_ASSERT(layers >= 3,
                      "need >= 3 sampled layers to extrapolate");
    if (prefillMode()) {
        graph_ = llm::buildPrefillChunkGraph(model, prefill_tokens_,
                                             kv_base_, quant_, layers,
                                             last_chunk_);
        graph_is_decode_ = false;
    } else if (graph_is_decode_ && graph_.n_layers == layers) {
        // Per-request graph instancing: the decode graph's structure
        // is seq-independent, so only rebind the seq-driven KV/SFU
        // magnitudes instead of rebuilding every op.
        llm::rebindDecodeGraphSeq(graph_, model, quant_, seq_);
    } else {
        graph_ = llm::buildDecodeGraph(model, seq_, quant_, layers);
        graph_is_decode_ = true;
    }

    const std::size_t n = graph_.ops.size();
    st_.assign(n, OpState{});
    dependents_.assign(n, {});
    layer_last_.assign(layers, -1);
    layer_snaps_.assign(layers, StreamCounters{});
    gemv_order_.clear();
    prefetch_next_ = 0;
    outstanding_read_bytes_ = 0;
    rr_read_channel_ = 0;
    ops_done_ = 0;
    end_tick_ = 0;

    for (std::uint32_t i = 0; i < n; ++i) {
        const llm::Op &op = graph_.ops[i];
        st_[i].remaining_deps = std::uint32_t(op.deps.size());
        for (std::uint32_t d : op.deps)
            dependents_[d].push_back(i);
        if (op.kind == llm::OpKind::GemvWeight)
            gemv_order_.push_back(i);
        if (op.layer != ~std::uint32_t(0))
            layer_last_[op.layer] =
                std::max(layer_last_[op.layer], std::int64_t(i));
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
        npu_flops_ += op.flops;
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
        npu_flops_ += op.flops;
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
                tile.cls = workClass();
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
    flash_flops_ += 2.0 * double(flash_rows) * double(op.cols);
    wb_flash_ += quant_.weightBytes(flash_rows * op.cols);

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

    npu_flops_ += 2.0 * double(npu_rows) * double(plan.cols) *
                  graph_.ops[id].npu_compute_scale;
    wb_npu_ += bytes;
    outstanding_read_bytes_ += bytes;

    flash::ReadPageJob job;
    job.client = client_;
    job.cls = workClass();
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
    if (last)
        end_tick_ = env_.eq->now();

    // Layer-boundary snapshot for steady-state extrapolation.
    if (op.layer != ~std::uint32_t(0) &&
        layer_last_[op.layer] == std::int64_t(id))
        layer_snaps_[op.layer] = capture();

    for (std::uint32_t dep : dependents_[id]) {
        CAMLLM_ASSERT(st_[dep].remaining_deps > 0);
        if (--st_[dep].remaining_deps == 0)
            opReady(dep);
    }
    tryPrefetch();
    if (last)
        finishToken();
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
DecodeStream::finishToken()
{
    const llm::ModelConfig &model = *env_.model;
    const std::uint32_t layers = graph_.n_layers;

    StreamCounters total = capture() - start_;
    total.t = end_tick_ - token_start_;

    TokenStats out;
    out.simulated_layers = layers;
    if (layers < model.n_layers) {
        // Steady-state delta between two interior layers (the last
        // sampled layer also contains the final norm, so use k-3/k-2).
        const StreamCounters delta =
            layer_snaps_[layers - 2] - layer_snaps_[layers - 3];
        total.addScaled(delta, model.n_layers - layers);
        out.extrapolated = true;
    }

    out.token_time = total.t;
    const double tokens = prefillMode() ? double(prefill_tokens_) : 1.0;
    out.tokens_per_s =
        total.t > 0 ? tokens * double(kSec) / double(total.t) : 0.0;
    out.avg_channel_util =
        total.t > 0
            ? total.busy_sum /
                  (double(total.t) *
                   double(env_.cfg->flash.geometry.channels))
            : 0.0;
    out.channel_bytes_high = total.ch_high;
    out.channel_bytes_low = total.ch_low;
    out.dram_bytes = total.dram_bytes;
    out.array_read_bytes =
        total.array_reads *
        std::uint64_t(env_.cfg->flash.geometry.page_bytes);
    out.pages_computed = total.pages_computed;
    out.pages_read = total.pages_read;
    out.npu_flops = total.npu_flops;
    out.flash_flops = total.flash_flops;
    out.weight_bytes_flash = total.wb_flash;
    out.weight_bytes_npu = total.wb_npu;

    done_ops_all_ = true;
    // The callback may immediately start the next token (continuous
    // batching), so hand control over only after our state is settled.
    TokenDone done = std::move(done_);
    done_ = nullptr;
    done(out);
}

} // namespace camllm::core
