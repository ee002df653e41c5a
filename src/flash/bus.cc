#include "bus.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace camllm::flash {

ChannelBus::~ChannelBus()
{
    if (ticker_.armed())
        eq_.disarm(ticker_);
}

void
ChannelBus::request(BusPriority prio, std::uint64_t bytes,
                    std::function<void()> done, const char *label,
                    std::uint64_t slice_bytes)
{
    CAMLLM_ASSERT(bytes > 0, "zero-byte bus transaction");
    // One sequence number covers all of a transaction's slices: no
    // other request can be numbered between them, so FIFO arbitration
    // at each slice boundary is decided exactly as it would be for
    // per-slice requests.
    Txn txn{next_seq_++, bytes, slice_bytes ? slice_bytes : bytes,
            std::move(done), label};
    if (prio == BusPriority::High) {
        high_.push_back(std::move(txn));
        // Under Slice Control the High request takes the bus at the
        // next slice boundary, so that boundary must arbitrate.
        if (priority_ && ticker_.armed())
            eq_.fireNext(ticker_);
    } else {
        low_.push_back(std::move(txn));
    }
    tryStart();
}

void
ChannelBus::tryStart()
{
    if (busy_now_)
        return;
    if (high_.empty() && low_.empty())
        return;

    // With Slice Control the high class always wins; a conventional
    // channel serves transfers strictly in arrival order.
    bool take_high;
    if (high_.empty()) {
        take_high = false;
    } else if (low_.empty()) {
        take_high = true;
    } else if (priority_) {
        take_high = true;
    } else {
        take_high = high_.front().seq < low_.front().seq;
    }
    BusPriority prio = take_high ? BusPriority::High : BusPriority::Low;
    // The transaction stays at the head of its queue until its last
    // slice completes; only this slice's share is granted now.
    Txn &txn = take_high ? high_.front() : low_.front();
    const std::uint64_t bytes = std::min(txn.slice, txn.left);
    txn.left -= bytes;

    busy_now_ = true;
    Tick start = eq_.now();
    Tick end = start + grantTime(bytes);
    busy_.addBusy(start, end);
    if (prio == BusPriority::High)
        bytes_high_ += bytes;
    else
        bytes_low_ += bytes;
    ++grants_;

    if (trace_)
        trace_(GrantTrace{start, end, prio, bytes, txn.label});

    // While only this page wants the bus, each boundary before its
    // last full slice would re-grant the page unchanged: let those
    // pass silently. request() and setRateScale() end the run early
    // when a boundary must arbitrate after all.
    if (!take_high && txn.left >= txn.slice)
        eq_.arm(ticker_, end - start, txn.left / txn.slice);
    else
        eq_.schedule(end, [this, take_high] { finishGrant(take_high); });
}

void
ChannelBus::endSilentRun()
{
    const std::uint64_t n = ticker_.passes();
    const Tick period = ticker_.period();
    Txn &txn = low_.front();
    txn.left -= n * txn.slice;
    bytes_low_ += n * txn.slice;
    grants_ += n;
    busy_.addBusy(0, n * period);
    if (trace_) {
        // Silent slice k of n ran [now - (n+1-k) period, now - (n-k) period).
        for (std::uint64_t i = n; i > 0; --i) {
            const Tick start = eq_.now() - i * period;
            trace_(GrantTrace{start, start + period, BusPriority::Low,
                              txn.slice, txn.label});
        }
    }
    finishGrant(false);
}

void
ChannelBus::finishGrant(bool high)
{
    busy_now_ = false;
    auto &queue = high ? high_ : low_;
    if (queue.front().left == 0) {
        std::function<void()> done = std::move(queue.front().done);
        queue.pop_front();
        done();
    }
    tryStart();
}

} // namespace camllm::flash
