/**
 * @file
 * Discrete-event kernel for the cycle-level ENA simulator.
 *
 * Events are gem5-style: an abstract Event with a process() method, a
 * convenience EventFunctionWrapper for lambdas, and an EventQueue ordered
 * by (tick, insertion sequence). One Tick is one picosecond (util/units).
 *
 * Ownership: callers own Event objects (usually as members of SimObjects)
 * and they must outlive their scheduled occurrences. The lambda-scheduling
 * helper allocates a self-deleting wrapper for fire-and-forget callbacks.
 */

#ifndef ENA_SIM_EVENT_HH
#define ENA_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/units.hh"

namespace ena {

class EventQueue;
class EventFunctionWrapper;

/** Sentinel "no limit" tick for bounded runs. */
constexpr Tick maxTick = ~Tick(0);

/** An occurrence scheduled at a future tick. */
class Event
{
  public:
    Event() = default;
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the event queue when the event's tick is reached. */
    virtual void process() = 0;

    /** Human-readable description for debugging. */
    virtual std::string description() const { return "generic event"; }

    /** True while this event sits in a queue awaiting execution. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will (or did last) fire. */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    /** Heap entries (live + stale) referencing this event; a
     *  self-deleting wrapper stays alive until its last one pops. */
    std::uint32_t heapRefs_ = 0;
    bool scheduled_ = false;
    bool selfDeleting_ = false;
};

/** Event that runs a captured callable. */
class EventFunctionWrapper : public Event
{
  public:
    explicit EventFunctionWrapper(std::function<void()> fn,
                                  std::string desc = "lambda event")
        : fn_(std::move(fn)), desc_(std::move(desc))
    {}

    void process() override { fn_(); }
    std::string description() const override { return desc_; }

  private:
    std::function<void()> fn_;
    std::string desc_;
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
     * Schedule a one-shot callable; the kernel allocates and later frees
     * the wrapper event. The returned pointer stays valid until the
     * wrapper fires (or the queue dies) and may be passed to
     * deschedule(); callers normally ignore it.
     */
    EventFunctionWrapper *scheduleLambda(Tick when,
                                         std::function<void()> fn,
                                         std::string desc = "lambda event");

    /** True when no live events remain. */
    bool empty() const { return liveCount_ == 0; }

    /** Tick of the next live event; fatal() when empty. */
    Tick nextTick() const;

    /** Tick of the next live event, or @p fallback when empty. */
    Tick nextTickOr(Tick fallback) const;

    /** Move time forward to @p when with no event processing (never
     *  backwards); used by windowed multi-queue execution. */
    void advanceTo(Tick when);

    /** Execute the single next event; returns false when queue empty. */
    bool serviceOne();

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
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;
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

    /** Pop stale (descheduled / rescheduled) entries off the heap top. */
    void skim() const;

    mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    /** Live queue-owned (self-deleting) wrappers; the destructor frees
     *  exactly this set and never inspects heap entries, which may
     *  reference caller-owned events already destroyed. */
    mutable std::unordered_set<Event *> managed_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t liveCount_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace ena

#endif // ENA_SIM_EVENT_HH
