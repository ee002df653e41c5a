#include "channel_engine.h"

#include "common/logging.h"

namespace camllm::flash {

ChannelEngine::ChannelEngine(EventQueue &eq, const FlashParams &params,
                             CompletionRouter &router,
                             std::uint32_t tile_window,
                             bool slice_control,
                             std::uint32_t channel_index)
    : eq_(eq), params_(params), router_(router),
      tile_window_(tile_window), channel_index_(channel_index),
      bus_(eq, params.timing.busBytesPerNs(), params.timing.grant_overhead,
           slice_control)
{
    CAMLLM_ASSERT(tile_window_ > 0);
    const std::uint32_t n_dies = params_.geometry.diesPerChannel();
    dies_.reserve(n_dies);
    for (std::uint32_t i = 0; i < n_dies; ++i)
        dies_.push_back(std::make_unique<DieModel>(
            eq_, bus_, params_, *this, channel_index_, i));
    free_read_planes_ = n_dies;
    active_.reserve(tile_window_);
}

void
ChannelEngine::submitTile(const RcTileWork &tile)
{
    CAMLLM_ASSERT(!offline_, "tile submitted to an offline channel");
    CAMLLM_ASSERT(tile.cores_used > 0 && tile.cores_used <= dies_.size(),
                  "tile uses %u cores, channel has %zu dies",
                  tile.cores_used, dies_.size());
    CAMLLM_ASSERT(tile.input_bytes > 0 && tile.out_bytes_per_core > 0);
    tile_queue_.push_back(tile);
    tryActivate();
}

void
ChannelEngine::submitRead(const ReadPageJob &job)
{
    CAMLLM_ASSERT(!offline_, "read submitted to an offline channel");
    read_queue_.push_back(job);
    dispatchReads();
}

void
ChannelEngine::setFaultModel(FaultModel *fault)
{
    for (auto &die : dies_)
        die->setFaultModel(fault);
}

ChannelEngine::OfflineWork
ChannelEngine::failOffline()
{
    CAMLLM_ASSERT(!offline_, "channel failed twice");
    offline_ = true;
    for (auto &die : dies_)
        die->setOffline();

    OfflineWork w;
    // Queued tiles re-issue verbatim; an active tile re-issues only
    // its unfinished cores (delivered results already reached their
    // client and must not be produced twice). The input broadcast is
    // repeated on the new channel either way — its cores have empty
    // input buffers.
    for (const RcTileWork &t : tile_queue_)
        w.tiles.push_back(t);
    tile_queue_.clear();
    for (const ActiveTile &tile : active_) {
        if (tile.results_remaining == 0)
            continue;
        RcTileWork t = tile.work;
        t.cores_used = tile.results_remaining;
        w.tiles.push_back(t);
    }
    // active_ stays populated: late die events still consult
    // inputReady(), and the entries are dead weight, not dangling
    // state.

    for (const ReadPageJob &j : read_queue_)
        w.reads.push_back(j);
    read_queue_.clear();
    for (const auto &die : dies_)
        die->collectReads(w.reads);
    return w;
}

void
ChannelEngine::tryActivate()
{
    while (active_.size() < tile_window_ && !tile_queue_.empty()) {
        RcTileWork tile = tile_queue_.front();
        tile_queue_.pop_front();
        const std::uint32_t seq = next_tile_seq_++;
        active_.push_back(ActiveTile{seq, tile, tile.cores_used, false});

        // Broadcast the input slice to every engaged core's input
        // buffer; a single grant serves all chips on the bus.
        bus_.request(BusPriority::High, tile.input_bytes,
                     [this, seq] {
                         if (offline_)
                             return;
                         active_[activeIndex(seq)].input_ready = true;
                         for (auto &die : dies_)
                             die->notifyInputArrived();
                     },
                     "rc-input");

        RcPageJob job;
        job.client = tile.client;
        job.cls = tile.cls;
        job.op_id = tile.op_id;
        job.tile_seq = seq;
        job.out_bytes = tile.out_bytes_per_core;
        job.compute_time = tile.compute_time;
        for (std::uint32_t c = 0; c < tile.cores_used; ++c)
            dies_[c]->pushRcJob(job);
    }
}

void
ChannelEngine::dispatchReads()
{
    if (read_queue_.empty() || free_read_planes_ == 0)
        return;
    // Round-robin over dies so read service spreads across planes:
    // each job goes to the first free die at or after the cursor.
    const std::size_t n = dies_.size();
    std::size_t probe = 0;
    while (probe < n && !read_queue_.empty() && free_read_planes_ > 0) {
        std::size_t d = rr_die_ + probe;
        if (d >= n)
            d -= n;
        if (!dies_[d]->canAcceptRead()) {
            ++probe;
            continue;
        }
        dies_[d]->pushReadJob(read_queue_.front());
        read_queue_.pop_front();
        --free_read_planes_;
        rr_die_ = d + 1 == n ? 0 : d + 1;
        probe = 0;
    }
}

void
ChannelEngine::onReadSlotFree()
{
    ++free_read_planes_;
    dispatchReads();
}

std::size_t
ChannelEngine::activeIndex(std::uint32_t seq) const
{
    for (std::size_t i = 0; i < active_.size(); ++i)
        if (active_[i].seq == seq)
            return i;
    panic("compute references inactive tile %u", seq);
}

bool
ChannelEngine::inputReady(std::uint32_t tile_seq) const
{
    return active_[activeIndex(tile_seq)].input_ready;
}

void
ChannelEngine::onRcResultDelivered(const RcPageJob &job)
{
    if (offline_)
        return;
    const std::size_t i = activeIndex(job.tile_seq);
    CAMLLM_ASSERT(active_[i].results_remaining > 0);
    if (--active_[i].results_remaining == 0) {
        active_.erase(active_.begin() + std::ptrdiff_t(i));
        tryActivate();
    }
    Completion c;
    c.kind = Completion::Kind::RcResult;
    c.client = job.client;
    c.cls = job.cls;
    c.op_id = job.op_id;
    delivered_bytes_[std::size_t(job.cls)] += job.out_bytes;
    router_.deliver(c);
}

void
ChannelEngine::onReadDelivered(const ReadPageJob &job)
{
    if (offline_)
        return;
    Completion c;
    c.kind = Completion::Kind::ReadData;
    c.client = job.client;
    c.cls = job.cls;
    c.op_id = job.op_id;
    c.bytes = job.bytes;
    delivered_bytes_[std::size_t(job.cls)] += job.bytes;
    router_.deliver(c);
    dispatchReads();
}

std::uint64_t
ChannelEngine::pagesComputed() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->pagesComputed();
    return n;
}

std::uint64_t
ChannelEngine::pagesRead() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->pagesRead();
    return n;
}

std::uint64_t
ChannelEngine::arrayReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->arrayReads();
    return n;
}

std::uint64_t
ChannelEngine::retryReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dies_)
        n += d->retryReads();
    return n;
}

void
ChannelEngine::onRetryDrained(const ReadPageJob &job)
{
    if (offline_)
        return;
    delivered_bytes_[std::size_t(WorkClass::Retry)] += job.bytes;
}

} // namespace camllm::flash
