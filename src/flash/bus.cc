#include "bus.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace camllm::flash {

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
    if (prio == BusPriority::High)
        high_.push_back(std::move(txn));
    else
        low_.push_back(std::move(txn));
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

    eq_.schedule(end, [this, take_high] { finishGrant(take_high); });
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
