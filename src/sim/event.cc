#include "sim/event.hh"

#include <algorithm>
#include <memory>

#include "util/logging.hh"

namespace ena {

EventQueue::~EventQueue()
{
    // Free the lambda events that never fired. A caller-owned entry
    // may point at an event its owner descheduled and then destroyed,
    // so only owned entries are dereferenced.
    for (const Entry &e : heap_) {
        if (e.owned)
            delete e.event;
    }
}

void
EventQueue::push(Event *ev, Tick when, bool owned)
{
    ENA_ASSERT(when >= curTick_, "scheduling an event in the past (", when,
               " < ", curTick_, ")");
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->scheduled_ = true;
    heap_.push_back(Entry{when, ev->seq_, ev, owned});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++liveCount_;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    ENA_ASSERT(ev, "scheduling null event");
    ENA_ASSERT(!ev->scheduled_, "event already scheduled");
    push(ev, when, false);
}

void
EventQueue::deschedule(Event *ev)
{
    ENA_ASSERT(ev && ev->scheduled_, "descheduling unscheduled event");
    ev->scheduled_ = false;
    --liveCount_;
    // The heap entry is left in place and skipped lazily when popped.
}

void
EventQueue::scheduleLambda(Tick when, std::function<void()> fn)
{
    auto ev = std::make_unique<Event>(std::move(fn));
    push(ev.get(), when, true);
    ev.release();   // its heap entry owns it now
}

void
EventQueue::skim() const
{
    while (!heap_.empty()) {
        const Entry &e = heap_.front();
        if (e.event->scheduled_ && e.event->seq_ == e.seq)
            return;
        // Stale: the caller-owned event was descheduled, and maybe
        // scheduled again under a newer entry.
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

Tick
EventQueue::nextTick() const
{
    skim();
    if (heap_.empty())
        ENA_FATAL("nextTick() on empty event queue");
    return heap_.front().when;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (true) {
        skim();
        if (heap_.empty() || heap_.front().when > limit)
            break;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry e = heap_.back();
        heap_.pop_back();
        ENA_ASSERT(e.when >= curTick_, "event queue went backwards");
        curTick_ = e.when;
        e.event->scheduled_ = false;
        --liveCount_;
        ++processed_;
        ++n;
        // An owned event has just left its only entry: free it once it
        // has run.
        std::unique_ptr<Event> owned(e.owned ? e.event : nullptr);
        e.event->fn_();
    }
    // A bounded run simulates the whole window [entry tick, limit]:
    // even when the queue drains early or the next event lies past the
    // limit, time advances to the window boundary so that repeated
    // run(limit) segments (the chiplet study's time slices) observe
    // monotone, non-stale time. An unbounded run keeps the last event's
    // tick.
    if (limit != maxTick && curTick_ < limit)
        curTick_ = limit;
    return n;
}

} // namespace ena
