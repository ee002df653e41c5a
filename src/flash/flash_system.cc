#include "flash_system.h"

#include <algorithm>

#include "common/logging.h"

namespace camllm::flash {

FlashSystem::FlashSystem(EventQueue &eq, const FlashParams &params,
                         std::uint32_t tile_window, bool slice_control)
    : eq_(eq), params_(params), slice_control_(slice_control),
      router_(eq)
{
    if (!params_.valid())
        fatal("invalid flash configuration");
    channels_.reserve(params_.geometry.channels);
    for (std::uint32_t c = 0; c < params_.geometry.channels; ++c) {
        channels_.push_back(std::make_unique<ChannelEngine>(
            eq, params_, router_, tile_window, slice_control, c));
    }
}

double
FlashSystem::avgChannelUtilization(Tick elapsed) const
{
    if (elapsed == 0 || channels_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &ch : channels_)
        sum += ch->bus().busy().utilization(elapsed);
    return sum / double(channels_.size());
}

std::uint64_t
FlashSystem::channelBytes() const
{
    return channelBytesHigh() + channelBytesLow();
}

std::uint64_t
FlashSystem::channelBytesHigh() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->bus().bytesHigh();
    return n;
}

std::uint64_t
FlashSystem::channelBytesLow() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->bus().bytesLow();
    return n;
}

std::uint64_t
FlashSystem::pagesComputed() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->pagesComputed();
    return n;
}

std::uint64_t
FlashSystem::pagesRead() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->pagesRead();
    return n;
}

std::uint64_t
FlashSystem::arrayReads() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->arrayReads();
    return n;
}

std::uint64_t
FlashSystem::deliveredBytes(WorkClass cls) const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->deliveredBytes(cls);
    return n;
}

double
FlashSystem::busBusySum() const
{
    double sum = 0.0;
    for (const auto &ch : channels_)
        sum += double(ch->bus().busy().busyTicks());
    return sum;
}

std::uint64_t
FlashSystem::retryReads() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->retryReads();
    return n;
}

std::uint32_t
FlashSystem::aliveChannels() const
{
    std::uint32_t n = 0;
    for (const auto &ch : channels_)
        n += ch->offline() ? 0 : 1;
    return n;
}

void
FlashSystem::armFaults(const FaultSpec &spec)
{
    CAMLLM_ASSERT(!fault_model_, "faults armed twice");
    if (!spec.any())
        return;
    fault_model_ = std::make_unique<FaultModel>(
        spec, params_.geometry.page_bytes, params_.timing.t_read);
    for (auto &ch : channels_)
        ch->setFaultModel(fault_model_.get());

    bool any_offline = false;
    for (const ChannelFault &f : spec.channel_faults) {
        CAMLLM_ASSERT(f.channel < channelCount(),
                      "fault on channel %u of %u", f.channel,
                      channelCount());
        any_offline = any_offline || f.offline;
    }

    // A dead channel strands its share of the resident weights; wear
    // tracking and the retention scrubber need the same map for their
    // per-plane state. Seed it whenever any of the three is armed.
    const bool wear_armed =
        spec.wear_tracking || spec.refresh_pages_per_s > 0.0;
    if ((any_offline || wear_armed) && spec.model_weight_bytes > 0) {
        placement_ = std::make_unique<WeightPlacement>(params_.geometry);
        placement_->setWearPolicy(spec.wear_policy);
        const std::uint64_t pages =
            (spec.model_weight_bytes + params_.geometry.page_bytes - 1) /
            params_.geometry.page_bytes;
        placement_->seedStriped(pages);
        placement_->seedWear(spec.pe_cycles, spec.wear_skew,
                             spec.retention_hours);
    } else if (wear_armed) {
        warn("wear tracking / refresh armed without model_weight_bytes; "
             "falling back to uniform wear");
    }

    if (spec.wear_tracking && placement_)
        fault_model_->setWearSource(placement_.get());
    if (spec.refresh_pages_per_s > 0.0 && placement_)
        startRefresh(spec.refresh_pages_per_s);

    for (const ChannelFault &f : spec.channel_faults) {
        if (f.offline) {
            eq_.schedule(f.t0,
                         [this, c = f.channel] { takeChannelOffline(c); });
        } else {
            eq_.schedule(f.t0, [this, c = f.channel, s = f.slowdown] {
                if (!channels_[c]->offline())
                    channels_[c]->bus().setRateScale(1.0 / s);
            });
            eq_.schedule(f.t1, [this, c = f.channel] {
                if (!channels_[c]->offline())
                    channels_[c]->bus().setRateScale(1.0);
            });
        }
    }
}

std::uint32_t
FlashSystem::route(std::uint32_t ch)
{
    if (!channels_[ch]->offline())
        return ch;
    const std::uint32_t n = channelCount();
    for (std::uint32_t probe = 0; probe < n; ++probe) {
        const std::uint32_t c = (ch + 1 + redirect_rr_ + probe) % n;
        if (!channels_[c]->offline()) {
            redirect_rr_ = (redirect_rr_ + 1) % n;
            return c;
        }
    }
    fatal("all flash channels are offline");
}

void
FlashSystem::takeChannelOffline(std::uint32_t ch)
{
    if (channels_[ch]->offline())
        return;
    CAMLLM_ASSERT(aliveChannels() > 1, "cannot lose the last channel");
    ++channels_lost_;
    warn("flash channel %u went offline (%u surviving)", ch,
         aliveChannels() - 1);

    ChannelEngine::OfflineWork stranded = channels_[ch]->failOffline();

    // One-time rebuild: the dead channel's resident pages re-stripe
    // across the survivors, and the copy-in traffic occupies their
    // buses as bulk low-priority grants.
    if (placement_) {
        const std::uint64_t pages = placement_->remapChannel(ch);
        std::uint64_t bytes = pages * params_.geometry.page_bytes;
        remap_bytes_ += bytes;
        while (bytes > 0) {
            const std::uint64_t b =
                std::min<std::uint64_t>(FaultSpec::kRemapChunkBytes, bytes);
            bytes -= b;
            const std::uint32_t c = route(ch);
            channels_[c]->bus().request(BusPriority::Low, b, [] {},
                                        "remap");
        }
    }

    // Stranded jobs complete-with-failure on the dead channel (their
    // completions are suppressed) and re-issue on the survivors.
    reissued_jobs_ += stranded.tiles.size() + stranded.reads.size();
    for (const RcTileWork &t : stranded.tiles)
        submitTile(ch, t);
    for (const ReadPageJob &j : stranded.reads)
        submitRead(ch, j);
}

std::uint32_t
FlashSystem::submitPageReads(ReadPageJob proto, std::uint64_t bytes,
                             std::uint32_t ch)
{
    const std::uint32_t page = params_.geometry.page_bytes;
    proto.sliced = slice_control_;
    while (bytes > 0) {
        proto.bytes = std::uint32_t(std::min<std::uint64_t>(page, bytes));
        bytes -= proto.bytes;
        submitRead(ch, proto);
        ch = (ch + 1) % channelCount();
    }
    return ch;
}

std::uint32_t
FlashSystem::trackedRead(ClientId client, WorkClass cls,
                         std::uint64_t bytes, std::uint32_t ch,
                         std::function<void()> landed)
{
    CAMLLM_ASSERT(bytes > 0, "empty background read");
    ReadPageJob proto;
    proto.client = client;
    proto.cls = cls;
    proto.op_id = ++tracked_seq_;
    tracked_.emplace(proto.op_id, TrackedRead{bytes, std::move(landed)});
    return submitPageReads(proto, bytes, ch);
}

void
FlashSystem::onTrackedRead(const Completion &c)
{
    CAMLLM_ASSERT(c.kind == Completion::Kind::ReadData);
    auto it = tracked_.find(c.op_id);
    CAMLLM_ASSERT(it != tracked_.end(), "completion for unknown read %llu",
                  (unsigned long long)c.op_id);
    CAMLLM_ASSERT(it->second.left >= c.bytes);
    it->second.left -= c.bytes;
    if (it->second.left > 0)
        return;
    const std::function<void()> landed = std::move(it->second.landed);
    tracked_.erase(it);
    landed();
}

void
FlashSystem::startRefresh(double pages_per_s)
{
    CAMLLM_ASSERT(pages_per_s > 0.0);
    refresh_interval_ =
        std::max<Tick>(1, Tick(double(kSec) / pages_per_s));
    refresh_client_ =
        router_.connect([this](const Completion &c) { onTrackedRead(c); });
    eq_.scheduleIn(refresh_interval_, [this] { refreshTick(); });
}

/**
 * One scrub beat: re-read one page of the stalest alive plane through
 * the normal channel queue (WorkClass::Refresh), then re-write it on
 * delivery. The beat self-reschedules at a fixed cadence, but is
 * closed-loop: while the previous scrub op (read + write-back) is
 * still in flight the beat defers instead of issuing, so a rate above
 * die/bus capacity degrades to "scrub as fast as the hardware allows"
 * rather than growing the channel queues without bound.
 */
void
FlashSystem::refreshTick()
{
    if (refresh_stopped_)
        return;
    eq_.scheduleIn(refresh_interval_, [this] { refreshTick(); });

    if (refresh_inflight_ >= kMaxRefreshInFlight) {
        ++refresh_deferred_beats_;
        return;
    }

    const std::size_t src = placement_->stalestPlane();
    if (src == placement_->planeCount())
        return; // nothing resident anywhere alive
    ++refresh_inflight_;
    trackedRead(refresh_client_, WorkClass::Refresh,
                params_.geometry.page_bytes, placement_->planeChannel(src),
                [this, src] { refreshWriteBack(src); });
}

void
FlashSystem::refreshWriteBack(std::size_t src)
{
    // The wear policy picks which physical plane absorbs the
    // re-write: in place under Bump, the least-worn plane under
    // LeastWorn (in place too when the source channel died while the
    // read was in flight). The logical mapping is untouched — this is
    // wear bookkeeping, the data stays addressable where it was.
    std::size_t dst = src;
    if (placement_->wearPolicy() == WearPolicy::LeastWorn ||
        placement_->channelDead(placement_->planeChannel(src))) {
        const std::size_t lw = placement_->leastWornPlane();
        if (lw != placement_->planeCount())
            dst = lw;
    }

    // The write-back crosses the destination plane's channel bus as a
    // bulk low-priority grant, like remap rebuild traffic.
    const std::uint32_t bytes = params_.geometry.page_bytes;
    const std::uint32_t ch = route(placement_->planeChannel(dst));
    refresh_write_bytes_ += bytes;
    channels_[ch]->bus().request(BusPriority::Low, bytes,
                                 [this, src, dst] {
                                     placement_->noteRefresh(src, dst);
                                     ++refresh_pages_;
                                     // Write-back landed: the scrub op
                                     // is complete and the next beat
                                     // may issue again.
                                     --refresh_inflight_;
                                 },
                                 "refresh-write");
}

void
FlashSystem::enableKvSwap(std::uint64_t model_weight_bytes)
{
    CAMLLM_ASSERT(!kv_swap_enabled_, "KV swap armed twice");
    if (!placement_) {
        // No fault spec built a placement map; KV swap needs one for
        // quota and wear. Seed the resident weights first so the KV
        // region is carved from what a loaded device actually has
        // free.
        placement_ = std::make_unique<WeightPlacement>(params_.geometry);
        if (model_weight_bytes > 0) {
            const std::uint64_t pages =
                (model_weight_bytes + params_.geometry.page_bytes - 1) /
                params_.geometry.page_bytes;
            placement_->seedStriped(pages);
        }
    }
    placement_->reserveKvRegion(placement_->freePages());
    kv_swap_enabled_ = true;
    kv_swap_client_ =
        router_.connect([this](const Completion &c) { onTrackedRead(c); });
}

bool
FlashSystem::kvSwapOut(std::uint64_t full_bytes, std::uint64_t sim_bytes)
{
    CAMLLM_ASSERT(kv_swap_enabled_);
    const std::uint64_t page = params_.geometry.page_bytes;
    const std::uint64_t pages = (full_bytes + page - 1) / page;
    if (!placement_->kvProgram(pages))
        return false;
    // The write-out occupies the channel buses like remap/refresh
    // rebuild traffic: bulk low-priority grants, page-sized,
    // round-robin over the alive channels. Only the sampled-layer
    // share crosses the sim clock — the same depth convention every
    // other transfer in the run follows.
    kv_swap_write_bytes_ += sim_bytes;
    const std::uint32_t n = channelCount();
    std::uint64_t left = sim_bytes;
    while (left > 0) {
        const std::uint64_t b = std::min<std::uint64_t>(page, left);
        left -= b;
        const std::uint32_t c = route(kv_swap_rr_ % n);
        kv_swap_rr_ = (kv_swap_rr_ + 1) % n;
        channels_[c]->bus().request(BusPriority::Low, b, [] {},
                                    "kv-swap-out");
    }
    return true;
}

void
FlashSystem::kvSwapIn(std::uint64_t full_bytes, std::uint64_t sim_bytes,
                      std::function<void()> landed)
{
    kvSwapFree(full_bytes);
    kv_swap_read_rr_ = trackedRead(kv_swap_client_, WorkClass::KvSwap,
                                   sim_bytes, kv_swap_read_rr_,
                                   std::move(landed));
}

void
FlashSystem::kvSwapFree(std::uint64_t full_bytes)
{
    CAMLLM_ASSERT(kv_swap_enabled_);
    const std::uint64_t page = params_.geometry.page_bytes;
    placement_->kvFree((full_bytes + page - 1) / page);
}

double
FlashSystem::kvSwapRoundTripMs(std::uint64_t full_bytes) const
{
    const double bus_bytes_per_ns =
        double(aliveChannels()) * params_.timing.busBytesPerNs();
    const double headroom =
        std::max(0.05, 1.0 - avgChannelUtilization(eq_.now()));
    return 2.0 * double(full_bytes) / (bus_bytes_per_ns * headroom) /
           double(kMs);
}

void
FlashSystem::checkDrained() const
{
    CAMLLM_ASSERT(tracked_.empty(), "%zu swap-in/scrub reads never landed",
                  tracked_.size());
    if (kv_swap_enabled_)
        CAMLLM_ASSERT(placement_->kvLivePages() == 0,
                      "%llu flash KV pages still live at drain",
                      (unsigned long long)placement_->kvLivePages());
}

double
FlashSystem::wearSpreadPe() const
{
    return placement_ ? placement_->wearSpreadPe() : 0.0;
}

double
FlashSystem::wearMeanPe() const
{
    return placement_ ? placement_->wearMeanPe() : 0.0;
}

} // namespace camllm::flash
