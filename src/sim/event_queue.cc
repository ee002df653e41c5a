#include "event_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace camllm {

EventQueue::EventQueue()
{
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
    heap_.push_back(Entry{ev->when, ev->seq, ev});
    std::push_heap(heap_.begin(), heap_.end(), later);
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
EventQueue::reserve(std::size_t events)
{
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
    // The last boundary the ticker can reach, now + (silent + 1) *
    // period, must not wrap past kTickMax; fireNext() only shortens
    // the run, so the silent passes need no check of their own.
    Tick quiet = 0;
    const bool fits = !__builtin_mul_overflow(silent, period, &quiet) &&
                      quiet <= kTickMax - now_ &&
                      period <= kTickMax - now_ - quiet;
    CAMLLM_ASSERT(fits,
                  "ticker overflows the clock (now=%llu, period=%llu, "
                  "silent=%llu)",
                  (unsigned long long)now_, (unsigned long long)period,
                  (unsigned long long)silent);
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
    while (tickers_ > 0) {
        Lane &lane = earliestLane();
        Ticker *tk = lane.head;
        if (tk->when_ > limit)
            break;
        // Passes never touch the heap, so its front stays put for the
        // whole run of passes.
        if (!heap_.empty() &&
            later(Entry{tk->when_, tk->seq_, nullptr}, heap_.front()))
            break; // the calendar entry comes first
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
    if (heap_.empty() || heap_.front().when > limit)
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event *ev = heap_.back().ev;
    heap_.pop_back();
    const Tick t = ev->when;
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
    releaseChain(run_rest_);
    run_rest_ = nullptr;
    for (const Entry &e : heap_) {
        releaseChain(detachMembers(e.ev));
        release(e.ev);
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
    now_ = 0;
    next_seq_ = 0;
    executed_ = 0;
}

} // namespace camllm
