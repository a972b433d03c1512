/**
 * @file
 * Top-level owner of one event-driven simulation: the event queues, the
 * stat registry, and every SimObject created through it.
 *
 * A simulation normally runs on a single event queue (domain 0) — the
 * serial kernel, unchanged, which stays the oracle for every result in
 * this repo. For multi-chiplet models it can instead be partitioned
 * into several *domains* (setDomains), each with its own EventQueue and
 * its own SimObjects. Domains execute conservative-window PDES: every
 * window of `lookahead()` ticks runs concurrently on the process-wide
 * ThreadPool (one task per domain), and cross-domain interactions —
 * posted with postCrossDomain() and required to land at least one
 * lookahead in the future — are exchanged at deterministic window
 * barriers in a canonical (tick, dst, src, seq) order. Results are
 * therefore a pure function of the domain decomposition: bit-identical
 * at any thread count, with serial window execution
 * (setSerialWindows(true), or ENA_THREADS=1) as the reference.
 *
 * Invariants the windowed mode relies on:
 *  - an object's events run only on its own domain's queue, and its
 *    mutable state (including its stats) is touched only from there;
 *  - every cross-domain effect goes through postCrossDomain() with an
 *    arrival tick >= the current window's end (asserted);
 *  - the stat registry's map is not mutated while windows run (objects
 *    and stats are created at build time).
 */

#ifndef ENA_SIM_SIMULATION_HH
#define ENA_SIM_SIMULATION_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace ena {

class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Construct a SimObject owned by this simulation, assigned to the
     * current build domain (see DomainScope). The first constructor
     * argument (Simulation &) is supplied automatically. Returns a
     * non-owning pointer valid for the simulation's lifetime.
     */
    template <typename T, typename... Args>
    T *
    create(Args &&...args)
    {
        auto obj = std::make_unique<T>(*this, std::forward<Args>(args)...);
        T *raw = obj.get();
        objects_.push_back(std::move(obj));
        return raw;
    }

    /**
     * Partition the simulation into @p n event-queue domains. Must be
     * called before any object is created; n == 1 (the default) is the
     * plain serial kernel. Multi-domain simulations must also call
     * setLookahead() before run().
     */
    void setDomains(int n);
    int numDomains() const { return static_cast<int>(queues_.size()); }

    /**
     * Conservative lookahead: the minimum latency of any cross-domain
     * channel, which bounds the window size. Every postCrossDomain()
     * arrival must be >= the end of the window it was posted in.
     */
    void setLookahead(Tick ticks);
    Tick lookahead() const { return lookahead_; }

    /**
     * Run each window's domains serially on the caller instead of on
     * the ThreadPool. Results are bit-identical either way (the repo's
     * determinism bar); this is the explicit serial oracle the PDES
     * gates compare against.
     */
    void setSerialWindows(bool serial) { serialWindows_ = serial; }
    bool serialWindows() const { return serialWindows_; }

    /** Scoped build-domain selector: objects created while the scope
     *  is alive belong to @p domain. */
    class DomainScope
    {
      public:
        DomainScope(Simulation &sim, int domain);
        ~DomainScope();

        DomainScope(const DomainScope &) = delete;
        DomainScope &operator=(const DomainScope &) = delete;

      private:
        Simulation &sim_;
        int prev_;
    };

    /** Domain new objects are assigned to (0 outside any scope). */
    int buildDomain() const { return buildDomain_; }

    /** The domain whose window is executing on the calling thread;
     *  0 when no window is in flight (build time, between runs). */
    int executingDomain() const;

    /** Current tick of the executing domain's queue — the only correct
     *  clock for code that may run inside any domain's window. */
    Tick now() const { return eventq(executingDomain()).curTick(); }

    /** True when an interaction from the executing domain to
     *  @p dst_domain must cross a domain boundary. */
    bool
    crossesDomain(int dst_domain) const
    {
        return numDomains() > 1 && executingDomain() != dst_domain;
    }

    /**
     * Deliver fn() on @p dst_domain's queue at absolute tick @p when.
     * Inside a window, the arrival must respect the lookahead
     * (when >= window end, fatal otherwise); the message is buffered in
     * the sender's outbox and merged at the next barrier in canonical
     * (when, dst, src, seq) order. Outside a window (startup, between
     * runs) it schedules directly. With one domain this is exactly
     * eventq().scheduleLambda(when, fn).
     */
    void postCrossDomain(int dst_domain, Tick when,
                         std::function<void()> fn, std::string desc);

    EventQueue &eventq() { return eventq(0); }
    const EventQueue &eventq() const { return eventq(0); }
    EventQueue &
    eventq(int domain)
    {
        return *queues_[static_cast<size_t>(domain)];
    }
    const EventQueue &
    eventq(int domain) const
    {
        return *queues_[static_cast<size_t>(domain)];
    }

    StatRegistry &stats() { return stats_; }
    const StatRegistry &stats() const { return stats_; }

    /** Latest tick any domain has reached (after run() with a finite
     *  limit, every domain sits exactly at the limit). */
    Tick curTick() const;

    /** Run init() then startup() on all objects (once). */
    void initAll();

    /**
     * initAll() if needed, then run to completion or @p limit ticks.
     * Returns number of events processed. With multiple domains this
     * executes conservative windows with barrier message exchange;
     * domain clocks all advance to the limit (or the global last event
     * tick) before returning. Traced as a "sim" span, and the events
     * are added to the process-wide "sim.events_processed" counter; the
     * simulation's own stats stay in stats().
     */
    std::uint64_t run(Tick limit = maxTick);

    size_t numObjects() const { return objects_.size(); }

    /** Events executed on one domain's queue (per-domain merge of the
     *  kernel's throughput accounting; not in the stat registry so
     *  dumps stay comparable across domain counts). */
    std::uint64_t
    eventsProcessedIn(int domain) const
    {
        return eventq(domain).eventsProcessed();
    }

    /** Barriers (message-exchange windows) executed so far. */
    std::uint64_t windowsRun() const { return windowsRun_; }

  private:
    /** One buffered cross-domain message awaiting the next barrier. */
    struct CrossMsg
    {
        Tick when;
        int dst;
        int src;
        std::uint64_t seq;
        std::function<void()> fn;
        std::string desc;
    };

    std::uint64_t runWindows(Tick limit);
    void deliverOutboxes();

    // Destruction runs in reverse declaration order: queues_ die first
    // (their destructors inspect Events still owned by live SimObjects),
    // then objects_ (whose stats deregister from stats_), then stats_.
    StatRegistry stats_;
    std::vector<std::unique_ptr<SimObject>> objects_;
    std::vector<std::unique_ptr<EventQueue>> queues_ = makeQueues(1);
    Tick lookahead_ = 0;
    bool serialWindows_ = false;
    bool initDone_ = false;
    int buildDomain_ = 0;

    /** End of the in-flight window (0 = no window in flight). Written
     *  by the barrier thread only, read by domain workers. */
    Tick windowEnd_ = 0;
    std::uint64_t windowsRun_ = 0;

    /** Per-source-domain outboxes; outboxes_[d] is written only by the
     *  thread running domain d's window. */
    std::vector<std::vector<CrossMsg>> outboxes_;
    std::vector<std::uint64_t> msgSeq_;

    static std::vector<std::unique_ptr<EventQueue>> makeQueues(int n);
};

} // namespace ena

#endif // ENA_SIM_SIMULATION_HH
