#include "event_queue.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace camllm {

bool
EventQueue::farLater(const FarEvent &a, const FarEvent &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq;
}

namespace {

/** Smallest power of two >= @p n within [lo, hi]. */
std::size_t
roundUpPow2Clamped(std::size_t n, std::size_t lo, std::size_t hi)
{
    n = std::max(n, lo);
    n = std::min(n, hi);
    std::size_t p = lo;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * Ring-scan an occupancy bitmap: visit @p count slots of the
 * @p size-slot ring (size a power of two) starting at @p start and
 * return the offset of the first occupied one, or @p count if none.
 */
std::size_t
scanOccupied(const std::uint64_t *occ, std::size_t size,
             std::size_t start, std::size_t count)
{
    std::size_t off = 0;
    while (off < count) {
        const std::size_t idx = (start + off) & (size - 1);
        const unsigned bit = idx & 63;
        // Stop each stride at the word edge and at the ring edge so
        // shifted-out low bits and wrapped slots are never misread.
        const std::size_t stride = std::min(
            count - off, std::min<std::size_t>(64 - bit, size - idx));
        const std::uint64_t word = occ[idx >> 6] >> bit;
        if (word != 0) {
            const std::size_t tz = std::size_t(std::countr_zero(word));
            if (tz < stride)
                return off + tz;
        }
        off += stride;
    }
    return count;
}

} // namespace

EventQueue::EventQueue(std::size_t window_ticks)
    : buckets_(roundUpPow2Clamped(window_ticks, kMinWindow, kMaxWindow))
{
    bucket_mask_ = Tick(buckets_.size() - 1);
    occ0_.assign((buckets_.size() + 63) / 64, 0);
    const unsigned window_log2 =
        unsigned(std::countr_zero(buckets_.size()));
    for (unsigned k = 0; k < kUpperLevels; ++k)
        wheels_[k].shift = window_log2 + 10 * k; // kUpperSlots == 2^10
    heap_.reserve(buckets_.size());
    addChunk();
}

EventQueue::~EventQueue()
{
    // Destroy any still-pending callbacks so captured state is freed.
    releaseAll();
}

void
EventQueue::addChunk()
{
    chunks_.push_back(std::make_unique<Event[]>(kChunk));
    chunk_used_ = 0;
}

EventQueue::Event *
EventQueue::allocate()
{
    if (free_ != nullptr) {
        Event *ev = free_;
        free_ = ev->next;
        --free_count_;
        return ev;
    }
    if (chunk_used_ == kChunk)
        addChunk();
    ++pool_allocated_;
    return &chunks_.back()[chunk_used_++];
}

EventQueue::Event *
EventQueue::acquire(Tick when)
{
    CAMLLM_ASSERT(when >= now_,
                  "event scheduled in the past "
                  "(when=%llu now=%llu seq=%llu)",
                  (unsigned long long)when, (unsigned long long)now_,
                  (unsigned long long)next_seq_);
    Event *ev = allocate();
    ev->when = when;
    ev->seq = next_seq_++;
    ev->next = nullptr;
    ev->last = nullptr;
    return ev;
}

void
EventQueue::link(Event *ev)
{
    OpenRun &o = open_[std::size_t(ev->when) & (kOpenSlots - 1)];
    if (o.head != nullptr && o.when == ev->when) {
        // Nothing else has been numbered at this tick since the run's
        // newest member, so the new event directly follows it.
        Event *head = o.head;
        if (head->last == nullptr) {
            ev->next = ev;
        } else {
            ev->next = head->last->next;
            head->last->next = ev;
        }
        head->last = ev;
        ++members_;
        return;
    }
    enqueue(ev);
    o.when = ev->when;
    o.head = ev;
}

EventQueue::Event *
EventQueue::detachMembers(Event *head)
{
    Event *last = head->last;
    if (last == nullptr)
        return nullptr;
    Event *oldest = last->next;
    last->next = nullptr;
    head->last = nullptr;
    return oldest;
}

std::size_t
EventQueue::heapPending() const
{
    std::size_t n = heap_.size();
    for (const FarEvent &fe : heap_) {
        const Event *last = fe.ev->last;
        if (last == nullptr)
            continue;
        const Event *m = last;
        do {
            ++n;
            m = m->next;
        } while (m != last);
    }
    return n;
}

void
EventQueue::appendToBucket(Bucket &b, Event *ev)
{
    ev->next = nullptr;
    if (b.tail == nullptr)
        b.head = ev;
    else
        b.tail->next = ev;
    b.tail = ev;
}

void
EventQueue::enqueue(Event *ev)
{
    const Tick when = ev->when;
    // Level = highest digit differing from the anchor (see header).
    // The anchor never crosses a block boundary without draining the
    // covering slot first, so for a fixed tick this level is monotone
    // non-increasing over time — a newer event can never land below
    // an older same-tick one, which keeps same-tick FIFO order exact.
    if ((when >> wheels_[0].shift) == (cal_base_ >> wheels_[0].shift)) {
        const std::size_t idx = std::size_t(when & bucket_mask_);
        appendToBucket(buckets_[idx], ev);
        occ0_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        ++cal_count_;
        if (when < cal_scan_)
            cal_scan_ = when;
        return;
    }
    for (Wheel &w : wheels_) {
        if ((when >> (w.shift + 10)) == (cal_base_ >> (w.shift + 10))) {
            const std::size_t idx =
                std::size_t(when >> w.shift) & (kUpperSlots - 1);
            appendToBucket(w.slots[idx], ev);
            w.occ[idx >> 6] |= std::uint64_t(1) << (idx & 63);
            ++w.count;
            ++wheel_count_;
            return;
        }
    }
    heap_.push_back(FarEvent{when, ev->seq, ev});
    std::push_heap(heap_.begin(), heap_.end(), farLater);
}

void
EventQueue::release(Event *ev)
{
    if (ev->destroy)
        ev->destroy(ev->storage);
    ev->next = free_;
    free_ = ev;
    ++free_count_;
}

void
EventQueue::migrateFromHeap()
{
    CAMLLM_ASSERT(cal_count_ == 0 && wheel_count_ == 0 &&
                  !heap_.empty());
    const Tick top = heap_.front().when;
    CAMLLM_ASSERT(top >= now_);
    cal_base_ = top & ~bucket_mask_;
    cal_scan_ = top;
    // Heap pops arrive in (when, seq) order, so FIFO appends keep the
    // same-tick sequence ordering intact. Everything inside the new
    // top-wheel block moves now, so the heap afterwards holds only
    // events in later blocks — which keeps wheels-before-heap a
    // total order in time.
    const unsigned top_shift = wheels_[kUpperLevels - 1].shift + 10;
    while (!heap_.empty() && (heap_.front().when >> top_shift) ==
                                 (cal_base_ >> top_shift)) {
        std::pop_heap(heap_.begin(), heap_.end(), farLater);
        Event *ev = heap_.back().ev;
        heap_.pop_back();
        enqueue(ev);
    }
}

Tick
EventQueue::peekEarliestTick(Tick commit_limit)
{
    for (;;) {
        if (cal_count_ > 0) {
            const Tick from = std::max(cal_scan_, now_);
            const Tick end = cal_base_ + buckets_.size();
            CAMLLM_ASSERT(from < end);
            const std::size_t off =
                scanOccupied(occ0_.data(), buckets_.size(),
                             std::size_t(from & bucket_mask_),
                             std::size_t(end - from));
            CAMLLM_ASSERT(off < std::size_t(end - from),
                          "non-empty calendar scanned empty");
            cal_scan_ = from + Tick(off);
            return cal_scan_;
        }
        if (wheel_count_ > 0) {
            // The lowest non-empty wheel holds the globally earliest
            // event: higher levels differ from the anchor at a higher
            // digit, i.e. lie in strictly later blocks.
            unsigned k = 0;
            while (wheels_[k].count == 0)
                ++k;
            Wheel &w = wheels_[k];
            // Only slots at/after the anchor's digit can be occupied
            // (an earlier digit would mean a tick below the anchor),
            // so the scan never crosses the block edge into stale
            // slot indices.
            const std::size_t digit =
                std::size_t(cal_base_ >> w.shift) & (kUpperSlots - 1);
            const std::size_t off =
                scanOccupied(w.occ.data(), kUpperSlots, digit,
                             kUpperSlots - digit);
            CAMLLM_ASSERT(off < kUpperSlots - digit,
                          "non-empty wheel scanned empty in-block");
            const std::size_t idx = digit + off;
            const Tick start =
                ((cal_base_ >> (w.shift + 10)) << (w.shift + 10)) |
                (Tick(idx) << w.shift);
            if (start > commit_limit)
                return start; // lower bound; anchor stays put
            // Cascade: drain the slot in stored (insertion) order
            // into the levels below. Its span is exactly the next
            // level's whole block, so every event lands at least one
            // level down; only anchor digits below level k change,
            // so no other event's level shifts.
            cal_base_ = start;
            cal_scan_ = start;
            Bucket &b = w.slots[idx];
            Event *ev = b.head;
            b.head = b.tail = nullptr;
            w.occ[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
            while (ev != nullptr) {
                Event *next = ev->next;
                --w.count;
                --wheel_count_;
                enqueue(ev);
                ev = next;
            }
            continue;
        }
        CAMLLM_ASSERT(!heap_.empty());
        const Tick top = heap_.front().when;
        if (top > commit_limit)
            return top;
        migrateFromHeap();
    }
}

EventQueue::Event *
EventQueue::popAt(Tick t)
{
    const std::size_t idx = std::size_t(t & bucket_mask_);
    Bucket &b = buckets_[idx];
    Event *ev = b.head;
    b.head = ev->next;
    if (b.head == nullptr) {
        b.tail = nullptr;
        occ0_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63));
    }
    --cal_count_;
    return ev;
}

void
EventQueue::reserve(std::size_t events)
{
    if (heap_.capacity() < events)
        heap_.reserve(events);
    if (free_count_ + (kChunk - chunk_used_) >= events)
        return;
    // Pre-carve records onto the free list until @p events can be
    // handed out without growing the pool — first the live chunk's
    // unused tail (so it is not orphaned when a new chunk replaces
    // it as the carve target), then whole fresh chunks.
    const auto carve = [this](Event *ev) {
        ev->destroy = nullptr;
        ev->next = free_;
        free_ = ev;
        ++pool_allocated_;
        ++free_count_;
    };
    while (chunk_used_ < kChunk)
        carve(&chunks_.back()[chunk_used_++]);
    while (free_count_ < events) {
        addChunk();
        for (std::size_t i = 0; i < kChunk; ++i)
            carve(&chunks_.back()[i]);
        chunk_used_ = kChunk;
    }
}

void
EventQueue::arm(Ticker &t, Tick period, std::uint64_t silent)
{
    CAMLLM_ASSERT(!t.armed_, "ticker armed twice");
    CAMLLM_ASSERT(period > 0, "ticker with a zero period");
    t.when_ = now_ + period;
    t.period_ = period;
    t.seq_ = next_seq_++;
    closeRunAt(t.when_);
    t.silent_ = silent;
    t.passes_ = 0;
    t.next_ = nullptr;
    t.armed_ = true;
    ++tickers_;
    for (Lane &lane : lanes_) {
        if (lane.period != period)
            continue;
        // Every armed ticker is due within one period of the clock,
        // so the newcomer (due now + period, newest seq) sorts last.
        CAMLLM_ASSERT(lane.tail->when_ <= t.when_,
                      "ticker lane out of order (tail when=%llu, new "
                      "when=%llu)",
                      (unsigned long long)lane.tail->when_,
                      (unsigned long long)t.when_);
        lane.tail->next_ = &t;
        lane.tail = &t;
        return;
    }
    lanes_.push_back(Lane{period, &t, &t});
}

void
EventQueue::disarm(Ticker &t)
{
    CAMLLM_ASSERT(t.armed_, "disarm of a disarmed ticker");
    for (Lane &lane : lanes_) {
        if (lane.period != t.period_)
            continue;
        Ticker *prev = nullptr;
        Ticker *cur = lane.head;
        while (cur != &t) {
            prev = cur;
            cur = cur->next_;
        }
        if (prev == nullptr)
            lane.head = t.next_;
        else
            prev->next_ = t.next_;
        if (lane.tail == &t)
            lane.tail = prev;
        t.next_ = nullptr;
        t.armed_ = false;
        --tickers_;
        if (lane.head == nullptr)
            removeLane(lane);
        return;
    }
    panic("armed ticker in no lane");
}

void
EventQueue::removeLane(Lane &lane)
{
    // Lane order carries no meaning: heads are compared by (when, seq).
    lane = lanes_.back();
    lanes_.pop_back();
}

EventQueue::Lane &
EventQueue::earliestLane()
{
    Lane *best = &lanes_.front();
    for (Lane &lane : lanes_) {
        const Ticker *h = lane.head;
        const Ticker *b = best->head;
        if (h->when_ < b->when_ ||
            (h->when_ == b->when_ && h->seq_ < b->seq_))
            best = &lane;
    }
    return *best;
}

bool
EventQueue::runNext(Tick limit)
{
    if (run_rest_ != nullptr) {
        // The rest of the run in progress precedes every other pending
        // event: nothing else was numbered at this tick between its
        // members, and any later number at this tick is after them.
        if (now_ > limit)
            return false;
        Event *ev = run_rest_;
        run_rest_ = ev->next;
        --members_;
        ++executed_;
        ev->invoke(ev->storage);
        release(ev);
        return true;
    }
    const bool calendar = calendarPending() > 0;
    Tick t = 0;         // calendar head tick, or a lower bound on it
    bool exact = false; // t is the committed calendar head tick
    while (tickers_ > 0) {
        Lane &lane = earliestLane();
        Ticker *tk = lane.head;
        if (tk->when_ > limit)
            break;
        // Peek no further than the ticker, so a re-anchor never runs
        // ahead of the clock the ticker is about to set. Passes do not
        // touch the calendar, so an exact peek stays valid for the
        // whole run of passes, and a lower bound until a ticker
        // reaches it.
        if (calendar && !exact && t <= tk->when_) {
            t = peekEarliestTick(tk->when_);
            exact = t <= tk->when_;
        }
        if (calendar && exact &&
            (t < tk->when_ ||
             (t == tk->when_ &&
              buckets_[std::size_t(t & bucket_mask_)].head->seq <
                  tk->seq_)))
            break; // the calendar event comes first
        now_ = tk->when_;
        ++executed_;
        if (tk->silent_ > 0) {
            // A silent pass: one period later with a fresh sequence
            // number, which sorts after every other ticker in the lane.
            --tk->silent_;
            ++tk->passes_;
            tk->when_ += tk->period_;
            tk->seq_ = next_seq_++;
            closeRunAt(tk->when_);
            if (lane.tail != tk) {
                lane.head = tk->next_;
                tk->next_ = nullptr;
                lane.tail->next_ = tk;
                lane.tail = tk;
            }
            continue;
        }
        lane.head = tk->next_;
        tk->next_ = nullptr;
        tk->armed_ = false;
        --tickers_;
        if (lane.head == nullptr)
            removeLane(lane);
        tk->fn_(tk->ctx_);
        return true;
    }
    if (!calendar)
        return false;
    if (!exact) {
        t = peekEarliestTick(limit);
        if (t > limit)
            return false;
    }
    Event *ev = popAt(t);
    now_ = t;
    ++executed_;
    // A popped head's run is closed: a schedule at this tick from here
    // on starts a new entry, numbered after every member.
    OpenRun &o = open_[std::size_t(t) & (kOpenSlots - 1)];
    if (o.head == ev)
        o.head = nullptr;
    run_rest_ = detachMembers(ev);
    ev->invoke(ev->storage);
    release(ev);
    return true;
}

bool
EventQueue::step()
{
    return runNext(kTickMax);
}

void
EventQueue::run()
{
    while (step()) {
    }
}

Tick
EventQueue::runUntil(Tick limit)
{
    // Peeks never commit an anchor advance past @p limit, so when the
    // loop ends the clock lands at limit >= cal_base_ and later
    // schedules can never target a tick below the anchor.
    while (runNext(limit)) {
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

void
EventQueue::releaseAll()
{
    const auto releaseChain = [this](Event *ev) {
        while (ev != nullptr) {
            Event *next = ev->next;
            release(ev);
            ev = next;
        }
    };
    const auto releaseEntries = [&](Bucket &b) {
        for (Event *ev = b.head; ev != nullptr;) {
            Event *next = ev->next;
            releaseChain(detachMembers(ev));
            release(ev);
            ev = next;
        }
        b.head = b.tail = nullptr;
    };
    releaseChain(run_rest_);
    run_rest_ = nullptr;
    for (Bucket &b : buckets_)
        releaseEntries(b);
    std::fill(occ0_.begin(), occ0_.end(), 0);
    cal_count_ = 0;
    for (Wheel &w : wheels_) {
        for (Bucket &b : w.slots)
            releaseEntries(b);
        w.occ.fill(0);
        w.count = 0;
    }
    wheel_count_ = 0;
    for (FarEvent &fe : heap_) {
        releaseChain(detachMembers(fe.ev));
        release(fe.ev);
    }
    heap_.clear();
    open_.fill(OpenRun{});
    members_ = 0;
}

void
EventQueue::reset()
{
    releaseAll();
    for (Lane &lane : lanes_) {
        for (Ticker *t = lane.head; t != nullptr;) {
            Ticker *next = t->next_;
            t->next_ = nullptr;
            t->armed_ = false;
            t = next;
        }
    }
    lanes_.clear();
    tickers_ = 0;
    cal_base_ = 0;
    cal_scan_ = 0;
    now_ = 0;
    next_seq_ = 0;
    executed_ = 0;
}

} // namespace camllm
