/**
 * @file
 * Tagged completion routing between the flash device and its clients.
 *
 * Every flash work item carries a ClientId; when a channel finishes a
 * piece of it, the channel pushes a Completion record here instead of
 * upcalling the owner synchronously. The router queues records per
 * client and drains each queue through a zero-delay EventQueue event,
 * so client reactions (op completions, new submissions) run as their
 * own events at the same tick rather than from inside a die's
 * bus-grant callback. This is what lets one flash model serve many
 * concurrently decoding requests: each request is just another
 * connected client with its own op-id namespace.
 */

#ifndef CAMLLM_FLASH_COMPLETION_H
#define CAMLLM_FLASH_COMPLETION_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "flash/work.h"
#include "sim/event_queue.h"

namespace camllm::flash {

/** Per-client completion queues drained via the event queue. */
class CompletionRouter
{
  public:
    using Handler = std::function<void(const Completion &)>;

    explicit CompletionRouter(EventQueue &eq) : eq_(eq) {}

    CompletionRouter(const CompletionRouter &) = delete;
    CompletionRouter &operator=(const CompletionRouter &) = delete;

    /** Register a client port; the returned id tags its work items. */
    ClientId
    connect(Handler handler)
    {
        ports_.push_back(Port{std::move(handler), {}, false, false});
        return ClientId(ports_.size() - 1);
    }

    /**
     * Tear a port down early (request cancelled or timed out while
     * its flash work is still in flight). Records already queued are
     * dropped on the spot and future deliveries for this client are
     * swallowed, so the dead port's handler is never invoked again. A
     * drain event already scheduled finds the port dead and returns
     * without touching the handler. The id is never reused.
     */
    void
    disconnect(ClientId id)
    {
        CAMLLM_ASSERT(id < ports_.size(),
                      "disconnect of unconnected client %u", id);
        Port &port = ports_[id];
        CAMLLM_ASSERT(!port.disconnected, "client %u torn down twice", id);
        dropped_ += port.pending.size();
        port.pending.clear();
        port.handler = nullptr;
        port.disconnected = true;
    }

    /** Queue @p c for its client and schedule a drain at this tick. */
    void
    deliver(const Completion &c)
    {
        CAMLLM_ASSERT(c.client < ports_.size(),
                      "completion for unconnected client %u", c.client);
        Port &port = ports_[c.client];
        if (port.disconnected) {
            ++dropped_;
            return;
        }
        port.pending.push_back(c);
        if (port.drain_scheduled)
            return;
        port.drain_scheduled = true;
        const ClientId id = c.client;
        eq_.scheduleIn(0, [this, id] { drain(id); });
    }

    /** Records swallowed on behalf of disconnected clients. */
    std::uint64_t dropped() const { return dropped_; }

  private:
    struct Port
    {
        Handler handler;
        std::deque<Completion> pending;
        bool drain_scheduled = false;
        bool disconnected = false;
    };

    void
    drain(ClientId id)
    {
        ports_[id].drain_scheduled = false;
        if (ports_[id].disconnected)
            return;
        // The handler may submit new work whose completions re-enter
        // deliver(); those schedule a fresh drain, so only hand over
        // the records that were pending when this event fired. The
        // handler may also connect() a new client (admitting another
        // decode stream), so re-index ports_ every iteration instead
        // of holding a reference across the possible reallocation.
        // The handler may even disconnect() this very port mid-batch,
        // which clears pending — the loop then finds nothing left.
        std::size_t n = ports_[id].pending.size();
        while (n-- > 0) {
            if (ports_[id].disconnected || ports_[id].pending.empty())
                break;
            const Completion c = ports_[id].pending.front();
            ports_[id].pending.pop_front();
            ports_[id].handler(c);
        }
    }

    EventQueue &eq_;
    std::vector<Port> ports_;
    std::uint64_t dropped_ = 0;
};

} // namespace camllm::flash

#endif // CAMLLM_FLASH_COMPLETION_H
