/**
 * @file
 * Flash channel bus model.
 *
 * The channel is a half-duplex 8-bit bus shared by every chip on the
 * channel; only one transfer proceeds at a time. Read-compute traffic
 * (input-vector broadcasts and result vectors) is latency critical and
 * tiny, so it is arbitrated ahead of bulk read-page slices. Grants are
 * non-preemptive: once a transfer starts it occupies the bus to the
 * end, which is exactly why unsliced page reads block read-compute
 * requests (Figure 6 of the paper).
 *
 * A sliced page is one transaction that stays at the head of its
 * queue and is granted one slice at a time. The bus re-arbitrates at
 * every slice boundary, and grant statistics and traces count slices;
 * the transaction's completion runs once, after its last slice.
 *
 * Most slice boundaries of a read page re-grant the same page: no
 * High request waits and the rate has not changed. Those boundaries
 * run as silent passes of an EventQueue::Ticker. A High request under
 * Slice Control or a rate change makes the next boundary arbitrate;
 * the slices that passed silently are folded into the statistics and
 * traced (in slice order) when the run ends, and the accessors include
 * them at any moment.
 */

#ifndef CAMLLM_FLASH_BUS_H
#define CAMLLM_FLASH_BUS_H

#include <cstdint>
#include <deque>
#include <functional>

#include "common/logging.h"
#include "common/stats.h"
#include "common/units.h"
#include "sim/event_queue.h"

namespace camllm::flash {

/** Arbitration class of a bus transaction. */
enum class BusPriority
{
    High, ///< read-compute inputs / results
    Low   ///< read-page data slices
};

/** Priority-arbitrated, non-preemptive channel bus. */
class ChannelBus
{
  public:
    /** Trace record emitted per completed grant (for Fig 6). */
    struct GrantTrace
    {
        Tick start;
        Tick end;
        BusPriority priority;
        std::uint64_t bytes;
        const char *label;
    };

    using TraceHook = std::function<void(const GrantTrace &)>;

    /**
     * @param priority_arbitration when true (Slice Control present)
     * read-compute traffic bypasses queued read slices; when false the
     * bus is a plain FIFO, as in a conventional flash channel.
     */
    ChannelBus(EventQueue &eq, double bytes_per_ns, Tick grant_overhead,
               bool priority_arbitration = true)
        : eq_(eq), bytes_per_ns_(bytes_per_ns),
          grant_overhead_(grant_overhead),
          priority_(priority_arbitration),
          ticker_([](void *bus) {
                      static_cast<ChannelBus *>(bus)->endSilentRun();
                  },
                  this)
    {
    }

    /** The queue holds the ticker's address: no copies, no moves. */
    ChannelBus(const ChannelBus &) = delete;
    ChannelBus &operator=(const ChannelBus &) = delete;
    ~ChannelBus();

    /**
     * Request the bus for @p bytes, moved in grants of at most
     * @p slice_bytes (0 = one grant for the whole transfer). @p done
     * runs once, when the last grant completes. @p label is only used
     * for tracing.
     */
    void request(BusPriority prio, std::uint64_t bytes,
                 std::function<void()> done, const char *label = "",
                 std::uint64_t slice_bytes = 0);

    /** Install a per-grant trace hook (nullptr to disable). */
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }

    /**
     * Degrade (or restore) the channel's transfer rate: effective
     * bandwidth becomes bytes_per_ns * @p scale. Used by the fault
     * layer's slowdown windows; the grant in flight keeps the rate it
     * started with, only future grants see the new scale.
     */
    void
    setRateScale(double scale)
    {
        CAMLLM_ASSERT(scale > 0.0 && scale <= 1.0,
                      "bus rate scale %.3f out of (0, 1]", scale);
        rate_scale_ = scale;
        if (ticker_.armed())
            eq_.fireNext(ticker_);
    }

    /** Busy time so far, slices passed silently included. */
    BusyTracker
    busy() const
    {
        BusyTracker b = busy_;
        b.addBusy(0, silentSlices() * ticker_.period());
        return b;
    }
    std::uint64_t bytesHigh() const { return bytes_high_; }
    std::uint64_t
    bytesLow() const
    {
        const std::uint64_t n = silentSlices();
        return n == 0 ? bytes_low_ : bytes_low_ + n * low_.front().slice;
    }
    std::uint64_t grants() const { return grants_ + silentSlices(); }

    /** Time to move @p bytes including the per-grant overhead. */
    Tick
    grantTime(std::uint64_t bytes) const
    {
        return grant_overhead_ +
               transferTime(bytes, bytes_per_ns_ * rate_scale_);
    }

  private:
    struct Txn
    {
        std::uint64_t seq;   ///< arrival order, for FIFO arbitration
        std::uint64_t left;  ///< bytes not yet granted
        std::uint64_t slice; ///< bytes per grant
        std::function<void()> done;
        const char *label;
    };

    void tryStart();
    void finishGrant(bool high);
    /** Ticker callback: account the slices that passed silently, then
     *  finish the grant in flight as finishGrant(false) would. */
    void endSilentRun();

    /** Slices of the Low head granted at silent boundaries and not yet
     *  folded into the counters. */
    std::uint64_t
    silentSlices() const
    {
        return ticker_.armed() ? ticker_.passes() : 0;
    }

    EventQueue &eq_;
    double bytes_per_ns_;
    Tick grant_overhead_;
    bool priority_;
    double rate_scale_ = 1.0;
    std::uint64_t next_seq_ = 0;
    std::deque<Txn> high_;
    std::deque<Txn> low_;
    bool busy_now_ = false;
    BusyTracker busy_;
    std::uint64_t bytes_high_ = 0;
    std::uint64_t bytes_low_ = 0;
    std::uint64_t grants_ = 0;
    TraceHook trace_;
    EventQueue::Ticker ticker_;
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_BUS_H
