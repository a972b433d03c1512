#include "sim/event.hh"

#include "util/logging.hh"

namespace ena {

Event::~Event() = default;

EventQueue::~EventQueue()
{
    // Free every self-deleting lambda wrapper the queue still owns —
    // live, descheduled, or rescheduled. The ownership set, not the
    // heap, is walked: heap entries can reference caller-owned events
    // whose owners were already destroyed, and a rescheduled wrapper
    // appears under several entries, so inspecting entries would read
    // dead objects and double-free.
    for (Event *ev : managed_)
        delete ev;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    ENA_ASSERT(ev, "scheduling null event");
    ENA_ASSERT(!ev->scheduled_, "event '", ev->description(),
               "' already scheduled");
    ENA_ASSERT(when >= curTick_, "scheduling event '", ev->description(),
               "' in the past (", when, " < ", curTick_, ")");
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->scheduled_ = true;
    ++ev->heapRefs_;
    heap_.push(Entry{when, ev->seq_, ev});
    ++liveCount_;
}

void
EventQueue::deschedule(Event *ev)
{
    ENA_ASSERT(ev && ev->scheduled_, "descheduling unscheduled event");
    ev->scheduled_ = false;
    --liveCount_;
    // The heap entry is left in place and skipped lazily when popped.
}

EventFunctionWrapper *
EventQueue::scheduleLambda(Tick when, std::function<void()> fn,
                           std::string desc)
{
    auto *ev = new EventFunctionWrapper(std::move(fn), std::move(desc));
    ev->selfDeleting_ = true;
    managed_.insert(ev);
    schedule(ev, when);
    return ev;
}

void
EventQueue::skim() const
{
    while (!heap_.empty()) {
        const Entry &e = heap_.top();
        Event *ev = e.event;
        if (ev->scheduled_ && ev->seq_ == e.seq)
            return;
        // Stale entry (descheduled or rescheduled). A self-deleting
        // wrapper is freed only once its last heap reference is gone,
        // so every pointer reached here is still alive.
        heap_.pop();
        if (--ev->heapRefs_ == 0 && ev->selfDeleting_ &&
            !ev->scheduled_) {
            managed_.erase(ev);
            delete ev;
        }
    }
}

Tick
EventQueue::nextTick() const
{
    skim();
    if (heap_.empty())
        ENA_FATAL("nextTick() on empty event queue");
    return heap_.top().when;
}

Tick
EventQueue::nextTickOr(Tick fallback) const
{
    skim();
    return heap_.empty() ? fallback : heap_.top().when;
}

bool
EventQueue::serviceOne()
{
    skim();
    if (heap_.empty())
        return false;

    Entry e = heap_.top();
    heap_.pop();
    ENA_ASSERT(e.when >= curTick_, "event queue went backwards");
    curTick_ = e.when;

    Event *ev = e.event;
    --ev->heapRefs_;
    ev->scheduled_ = false;
    --liveCount_;
    ++processed_;
    ev->process();
    // Deferred while stale reschedule entries still reference the
    // wrapper; the last one to pop (in skim) frees it instead.
    if (ev->selfDeleting_ && !ev->scheduled_ && ev->heapRefs_ == 0) {
        managed_.erase(ev);
        delete ev;
    }
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (true) {
        skim();
        if (heap_.empty() || heap_.top().when > limit)
            break;
        serviceOne();
        ++n;
    }
    // A bounded run simulates the whole window [entry tick, limit]:
    // even when the queue drains early or the next event lies past the
    // limit, time advances to the window boundary so that repeated
    // run(limit) segments (the PDES barrier pattern) observe monotone,
    // non-stale time. An unbounded run keeps the last event's tick.
    if (limit != maxTick && curTick_ < limit)
        curTick_ = limit;
    return n;
}

void
EventQueue::advanceTo(Tick when)
{
    if (when > curTick_)
        curTick_ = when;
}

} // namespace ena
