#include "sim/simulation.hh"

#include <algorithm>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

/** Which simulation/domain window is executing on this thread. The
 *  pair is saved and restored around every window so nested pools
 *  (an outer study parallelizing whole simulations, each windowing
 *  inline) stay correct. */
thread_local const Simulation *tlsSim = nullptr;
thread_local int tlsDomain = 0;

class ExecScope
{
  public:
    ExecScope(const Simulation *sim, int domain)
        : prevSim_(tlsSim), prevDomain_(tlsDomain)
    {
        tlsSim = sim;
        tlsDomain = domain;
    }
    ~ExecScope()
    {
        tlsSim = prevSim_;
        tlsDomain = prevDomain_;
    }

  private:
    const Simulation *prevSim_;
    int prevDomain_;
};

} // anonymous namespace

std::vector<std::unique_ptr<EventQueue>>
Simulation::makeQueues(int n)
{
    std::vector<std::unique_ptr<EventQueue>> queues;
    queues.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        queues.push_back(std::make_unique<EventQueue>());
    return queues;
}

void
Simulation::setDomains(int n)
{
    ENA_ASSERT(n >= 1, "need at least one domain, got ", n);
    ENA_ASSERT(objects_.empty() && !initDone_,
               "setDomains() must precede object creation");
    queues_ = makeQueues(n);
    outboxes_.assign(static_cast<size_t>(n), {});
    msgSeq_.assign(static_cast<size_t>(n), 0);
}

void
Simulation::setLookahead(Tick ticks)
{
    ENA_ASSERT(ticks > 0, "lookahead must be positive");
    lookahead_ = ticks;
}

Simulation::DomainScope::DomainScope(Simulation &sim, int domain)
    : sim_(sim), prev_(sim.buildDomain_)
{
    ENA_ASSERT(domain >= 0 && domain < sim.numDomains(),
               "build domain ", domain, " out of range (",
               sim.numDomains(), " domains)");
    sim_.buildDomain_ = domain;
}

Simulation::DomainScope::~DomainScope()
{
    sim_.buildDomain_ = prev_;
}

int
Simulation::executingDomain() const
{
    return tlsSim == this ? tlsDomain : 0;
}

void
Simulation::postCrossDomain(int dst_domain, Tick when,
                            std::function<void()> fn, std::string desc)
{
    ENA_ASSERT(dst_domain >= 0 && dst_domain < numDomains(),
               "post to unknown domain ", dst_domain);
    int src = executingDomain();
    if (windowEnd_ == 0 || src == dst_domain) {
        // Serial contexts (one domain, build time, between runs) and
        // same-domain posts schedule directly: plain kernel semantics.
        eventq(dst_domain).scheduleLambda(when, std::move(fn),
                                          std::move(desc));
        return;
    }
    ENA_ASSERT(when >= windowEnd_,
               "cross-domain post at tick ", when,
               " violates the lookahead window ending at ", windowEnd_,
               " (", desc, ")");
    auto &outbox = outboxes_[static_cast<size_t>(src)];
    outbox.push_back(CrossMsg{when, dst_domain, src,
                              msgSeq_[static_cast<size_t>(src)]++,
                              std::move(fn), std::move(desc)});
}

Tick
Simulation::curTick() const
{
    Tick t = 0;
    for (const auto &q : queues_)
        t = std::max(t, q->curTick());
    return t;
}

void
Simulation::initAll()
{
    if (initDone_)
        return;
    initDone_ = true;
    // init() in creation order, then startup() in creation order; new
    // objects created during init() are picked up by index iteration.
    for (size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->init();
    for (size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->startup();
}

std::uint64_t
Simulation::run(Tick limit)
{
    ENA_SPAN("sim", "run");
    initAll();
    std::uint64_t events = queues_.size() == 1 ? queues_[0]->run(limit)
                                               : runWindows(limit);

    static telemetry::Counter &processed = telemetry::counter(
        "sim.events_processed",
        "events executed across all cycle-level simulations");
    processed.add(events);
    return events;
}

std::uint64_t
Simulation::runWindows(Tick limit)
{
    ENA_ASSERT(lookahead_ > 0,
               "multi-domain simulation needs setLookahead() before run");
    const size_t domains = queues_.size();
    std::vector<std::uint64_t> windowEvents(domains, 0);
    std::uint64_t events = 0;

    while (true) {
        // Earliest pending event anywhere; every barrier has already
        // delivered its messages, so the queues hold the whole future.
        Tick start = maxTick;
        for (const auto &q : queues_)
            start = std::min(start, q->nextTickOr(maxTick));
        if (start == maxTick || start > limit)
            break;

        // Window [start, end): bounded by the lookahead and the limit.
        Tick end = start > maxTick - lookahead_ ? maxTick
                                                : start + lookahead_;
        if (limit != maxTick)
            end = std::min(end, limit + 1);
        windowEnd_ = end;

        auto runDomain = [&](std::size_t d) {
            ExecScope scope(this, static_cast<int>(d));
            windowEvents[d] = queues_[d]->run(end - 1);
        };
        if (serialWindows_) {
            for (std::size_t d = 0; d < domains; ++d)
                runDomain(d);
        } else {
            ThreadPool::global().parallelFor(domains, runDomain);
        }
        windowEnd_ = 0;
        ++windowsRun_;
        for (std::uint64_t n : windowEvents)
            events += n;

        deliverOutboxes();
    }

    // The whole bounded window was simulated: every domain clock lands
    // exactly on the limit (the serial kernel's run(limit) contract,
    // extended across domains). Unbounded runs settle all domains on
    // the global last-event tick so no domain reports stale time.
    Tick settle = limit != maxTick ? limit : curTick();
    for (auto &q : queues_)
        q->advanceTo(settle);
    return events;
}

void
Simulation::deliverOutboxes()
{
    std::vector<CrossMsg> all;
    for (auto &outbox : outboxes_) {
        std::move(outbox.begin(), outbox.end(), std::back_inserter(all));
        outbox.clear();
    }
    if (all.empty())
        return;
    // Canonical total order: arrival tick, then target domain, then
    // (source domain, per-source sequence). Scheduling in this order
    // fixes the same-tick FIFO position of every message independent
    // of thread interleaving — the determinism bar.
    std::sort(all.begin(), all.end(),
              [](const CrossMsg &a, const CrossMsg &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.dst != b.dst)
                      return a.dst < b.dst;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (CrossMsg &m : all) {
        eventq(m.dst).scheduleLambda(m.when, std::move(m.fn),
                                     std::move(m.desc));
    }
}

} // namespace ena
