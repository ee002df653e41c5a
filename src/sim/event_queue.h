/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single-threaded event queue with deterministic ordering: events
 * scheduled for the same tick execute in insertion order. All device
 * models (flash channels, dies, the NPU, DRAM) are driven from one
 * queue so cross-device interleavings are exact and reproducible.
 *
 * The kernel is allocation-free on the hot path: event records are
 * fixed-size nodes with inline callback storage (no std::function, no
 * per-event allocation) recycled through a free list. Pending events
 * live in one binary min-heap of calendar entries keyed by (tick,
 * sequence number). Same-tick runs (below) keep that heap shallow: the
 * serving workloads never hold more than a few dozen entries in it,
 * so a plain heap is enough at any tick distance, with no window,
 * anchor or far-future fallback.
 *
 * Adjacent same-tick events share one calendar entry. An event
 * scheduled for a tick whose newest pending entry is still *open*
 * joins that entry as a member of its same-tick run: no heap insert
 * of its own. A run stays open until its head
 * is popped or anything else takes a sequence number for its tick (a
 * newer entry, a ticker's arm() or silent pass), so every sequence
 * number between two members at that tick belongs to a member as
 * well, and running a run's members back to back right after its
 * head is exactly (tick, sequence number) order. Members keep their
 * own sequence numbers and count as events everywhere.
 *
 * Periodic boundaries that usually do nothing can instead run as
 * *tickers* (EventQueue::Ticker): a client-owned record that passes a
 * known number of boundaries silently, each at exactly the (tick,
 * sequence number) position a self-rescheduling event would take, and
 * only then runs its callback. Same-tick order is therefore identical
 * to the event it replaces; only the callback and the record traffic
 * of the silent boundaries go away.
 */

#ifndef CAMLLM_SIM_EVENT_QUEUE_H
#define CAMLLM_SIM_EVENT_QUEUE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/units.h"

namespace camllm {

/**
 * Min-ordered event queue keyed by (tick, insertion sequence).
 *
 * Invariants:
 *  - heap_ holds calendar entries (run heads and lone events), one
 *    per record, heap-ordered by (when, seq); sequence numbers are
 *    unique, so the order has no ties and the front is the earliest
 *    entry;
 *  - a run's members ride with their head, and open_[when %
 *    kOpenSlots] names the only entry at its tick that may still take
 *    members (none once a ticker numbers a boundary at that tick);
 *  - the next thing to run is the rest of the run in progress, else
 *    whichever of the heap front and the earliest ticker lane head
 *    has the smaller (when, seq).
 */
class EventQueue
{
  public:
    /** Inline capacity of an event record's callback storage. */
    static constexpr std::size_t kInlineBytes = 48;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Total number of events executed so far, silent ticker
     *  boundaries included. */
    std::uint64_t executed() const { return executed_; }

    /** Number of events still pending; an armed ticker counts as one. */
    std::size_t
    pending() const
    {
        return heap_.size() + members_ + tickers_;
    }

    bool empty() const { return pending() == 0; }

    /**
     * Schedule callable @p fn at absolute time @p when.
     * @pre when >= now(); scheduling in the past is a simulator bug
     * and panics with the offending (when, now, seq).
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        // Construct the callback before linking the event in, so a
        // throwing callable constructor leaves no half-initialized
        // node in the calendar (the unlinked node merely leaks back
        // to the pool on queue destruction).
        Event *ev = acquire(when);
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(ev->storage))
                Fn(std::forward<F>(fn));
            ev->invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
            if constexpr (std::is_trivially_destructible_v<Fn>)
                ev->destroy = nullptr;
            else
                ev->destroy = [](void *p) {
                    static_cast<Fn *>(p)->~Fn();
                };
        } else {
            // Oversized callable: one heap hop, still pooled node.
            Fn *boxed = new Fn(std::forward<F>(fn));
            std::memcpy(ev->storage, &boxed, sizeof boxed);
            ev->invoke = [](void *p) {
                Fn *f;
                std::memcpy(&f, p, sizeof f);
                (*f)();
            };
            ev->destroy = [](void *p) {
                Fn *f;
                std::memcpy(&f, p, sizeof f);
                delete f;
            };
        }
        link(ev);
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * A periodic boundary that can pass silently. The client owns the
     * record (the queue never allocates, copies or destroys one) and
     * must disarm it before destroying it.
     *
     * arm() stamps the first boundary at now() + period with a fresh
     * sequence number, exactly as schedule(now() + period, ...) would.
     * Each of the next `silent` boundaries then passes without a
     * callback: it counts in executed(), advances the clock, and takes
     * a fresh sequence number for the boundary one period later — the
     * position a callback rescheduling itself would take. The boundary
     * after those (or the next one once fireNext() is called)
     * disarms the ticker and runs fn(ctx) as an ordinary event.
     */
    class Ticker
    {
      public:
        using Fn = void (*)(void *ctx);

        Ticker(Fn fn, void *ctx) : fn_(fn), ctx_(ctx) {}
        Ticker(const Ticker &) = delete;
        Ticker &operator=(const Ticker &) = delete;

        bool armed() const { return armed_; }
        /** Boundaries passed silently since the last arm(). */
        std::uint64_t passes() const { return passes_; }
        /** Ticks between boundaries of the current (or last) arm(). */
        Tick period() const { return period_; }

      private:
        friend class EventQueue;

        Fn fn_;
        void *ctx_;
        Tick when_ = 0;
        Tick period_ = 0;
        std::uint64_t seq_ = 0;
        std::uint64_t silent_ = 0; ///< boundaries still to pass
        std::uint64_t passes_ = 0;
        Ticker *next_ = nullptr; ///< lane FIFO link
        bool armed_ = false;
    };

    /**
     * Arm @p t: its first boundary is now() + @p period, and the first
     * @p silent boundaries pass without a callback.
     * @pre !t.armed(), period > 0 and the last boundary,
     * now() + (silent + 1) * period, is at most kTickMax; a ticker
     * that would wrap the clock panics.
     */
    void arm(Ticker &t, Tick period, std::uint64_t silent);

    /** Make @p t's next boundary (not yet passed) run its callback.
     *  @pre t.armed(). */
    void
    fireNext(Ticker &t)
    {
        CAMLLM_ASSERT(t.armed_, "fireNext on a disarmed ticker");
        t.silent_ = 0;
    }

    /** Withdraw @p t without running its callback. @pre t.armed(). */
    void disarm(Ticker &t);

    /**
     * Pre-size the calendar heap and the event pool for @p events
     * pending events, avoiding regrowth mid-simulation.
     */
    void reserve(std::size_t events);

    /** Execute the single earliest event, after passing every silent
     *  ticker boundary ordered before it. @return false if none left. */
    bool step();

    /** Run until the queue drains. */
    void run();

    /**
     * Run every event with timestamp <= @p limit, then advance the
     * clock to @p limit (even if idle). @return the new current time.
     */
    Tick runUntil(Tick limit);

    /** Drop all pending events, disarm every ticker and rewind the
     *  clock to zero. */
    void reset();

    /**
     * Event records ever carved from the pool (recycled nodes are not
     * re-counted); exposed so tests can verify free-list reuse.
     */
    std::size_t poolAllocated() const { return pool_allocated_; }

  private:
    /** Event records per pool chunk. */
    static constexpr std::size_t kChunk = 512;

    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Event *next = nullptr; ///< member ring / free list
        /** Newest member of the same-tick run this event heads, or
         *  null; members form a ring through `next`, so last->next is
         *  the oldest. */
        Event *last = nullptr;
        void (*invoke)(void *) = nullptr;
        void (*destroy)(void *) = nullptr;
        alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    };

    /** Calendar heap entry; the key is copied out of the record so
     *  sifting never touches the pool. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;
    };

    /** Heap ordering predicate: a runs after b. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    /**
     * Armed tickers of one period, in (when, seq) order. Every armed
     * ticker's next boundary lies in [now, now + period], so a pass
     * (next boundary one period later, fresh sequence number) always
     * moves the head to the back and a new arm() always appends: the
     * lane is a FIFO, and each pass is O(1) where a heap would sift.
     */
    struct Lane
    {
        Tick period;
        Ticker *head;
        Ticker *tail;
    };

    /** Open-run table slot: the head of the open run at `when`. */
    struct OpenRun
    {
        Tick when = 0;
        Event *head = nullptr;
    };

    /** Direct-mapped open-run table size; a collision only starts a
     *  new run. */
    static constexpr std::size_t kOpenSlots = 1024;

    /** Pop a pooled record and stamp (when, seq); not yet linked in. */
    Event *acquire(Tick when);
    /** Destroy the callback (if any) and return the node to the pool. */
    void release(Event *ev);
    Event *allocate();
    void addChunk();
    /** Add a newly scheduled event: as a member of the open run at
     *  its tick if there is one, else as a new (open) heap entry. */
    void link(Event *ev);

    /** Close the open run at @p t, if any: a ticker boundary is about
     *  to take a sequence number for that tick. */
    void
    closeRunAt(Tick t)
    {
        OpenRun &o = open_[std::size_t(t) & (kOpenSlots - 1)];
        if (o.when == t)
            o.head = nullptr;
    }

    /** Unlink @p head's members; @return the oldest, the rest
     *  following through `next` (null-terminated). */
    static Event *detachMembers(Event *head);
    /** Release every pending calendar event and empty the heap. */
    void releaseAll();

    /** Pass silent ticker boundaries and run the first event (ticker
     *  callback or calendar event) with tick <= @p limit.
     *  @return false if no event was run. */
    bool runNext(Tick limit);
    /** Lane whose head is the earliest armed ticker; tickers_ > 0. */
    Lane &earliestLane();
    void removeLane(Lane &lane);

    std::vector<Entry> heap_; ///< calendar entries, a min-heap

    std::array<OpenRun, kOpenSlots> open_{};
    Event *run_rest_ = nullptr; ///< members of the run in progress
    std::size_t members_ = 0;   ///< pending run members, in progress too

    std::vector<Lane> lanes_; ///< one per distinct armed period
    std::size_t tickers_ = 0; ///< armed tickers across all lanes

    std::vector<std::unique_ptr<Event[]>> chunks_;
    Event *free_ = nullptr;
    std::size_t free_count_ = 0;
    std::size_t chunk_used_ = kChunk; ///< cursor into chunks_.back()
    std::size_t pool_allocated_ = 0;

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace camllm

#endif // CAMLLM_SIM_EVENT_QUEUE_H
