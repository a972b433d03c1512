/**
 * @file
 * Discrete-event kernel for the cycle-level ENA simulator.
 *
 * One Event type holds the callable it runs and its scheduling state;
 * an EventQueue orders events by (tick, insertion sequence). One Tick
 * is one picosecond (util/units).
 *
 * Ownership: callers own the events they schedule (usually as members
 * of SimObjects), and those must outlive their scheduled occurrences,
 * descheduled ones too: run() and nextTick() read the event when they
 * skip its stale entry at the old tick (the destructor does not). A
 * scheduleLambda() callback is the queue's own: the queue holds it in
 * an event that it frees once the event fires, or when the queue
 * itself is destroyed.
 */

#ifndef ENA_SIM_EVENT_HH
#define ENA_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/units.hh"

namespace ena {

class EventQueue;

/** Sentinel "no limit" tick for bounded runs. */
constexpr Tick maxTick = ~Tick(0);

/** A callable that runs when its scheduled tick is reached. */
class Event final
{
  public:
    explicit Event(std::function<void()> fn) : fn_(std::move(fn)) {}

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** True while this event sits in a queue awaiting execution. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will (or did last) fire. */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    bool scheduled_ = false;
    std::function<void()> fn_;
};

/**
 * A min-ordered queue of events. Events firing at the same tick execute
 * in scheduling order (FIFO), which keeps simulations deterministic.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *ev);

    /**
     * Schedule a one-shot callable at absolute tick @p when (>= curTick).
     * The queue owns the event that holds it: run() frees it after it
     * fires, and the destructor frees it if it never does.
     */
    void scheduleLambda(Tick when, std::function<void()> fn);

    /** True when no live events remain. */
    bool empty() const { return liveCount_ == 0; }

    /** Tick of the next live event; fatal() when empty. */
    Tick nextTick() const;

    /**
     * Run until the queue drains or simulated time would pass @p limit.
     * Returns the number of events processed. A bounded run leaves
     * curTick() == limit (the whole window was simulated even if no
     * event occupied its tail); an unbounded run leaves curTick() at
     * the last executed event.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t eventsProcessed() const { return processed_; }

  private:
    /** One heap slot. An owned slot holds a scheduleLambda() event,
     *  which no other slot references and which is never stale. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;
        bool owned;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Stamp @p ev with @p when and the next sequence number, and
     *  push its entry. */
    void push(Event *ev, Tick when, bool owned);

    /** Pop stale (descheduled / rescheduled) entries off the heap top. */
    void skim() const;

    /** Binary heap on Later, kept with std::push_heap / std::pop_heap
     *  so that the destructor can walk it. */
    mutable std::vector<Entry> heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t liveCount_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace ena

#endif // ENA_SIM_EVENT_HH
