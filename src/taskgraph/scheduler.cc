#include "taskgraph/scheduler.hh"

#include <algorithm>
#include <numeric>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

namespace {

telemetry::Counter &
tasksScheduledCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "taskgraph.tasks_scheduled",
        "DAG tasks placed onto nodes by scheduleDag");
    return c;
}

telemetry::Counter &
edgesCostedCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "taskgraph.edges_costed",
        "cross-node DAG edges charged a transfer cost");
    return c;
}

telemetry::Histogram &
scheduleLatencyHistogram()
{
    static telemetry::Histogram &h = telemetry::histogram(
        "taskgraph.schedule_us", "scheduleDag latency (us)");
    return h;
}

} // anonymous namespace

std::string
dagSchedulerName(DagScheduler s)
{
    switch (s) {
      case DagScheduler::CriticalPath:
        return "critical-path";
      case DagScheduler::MinMin:
        return "min-min";
      case DagScheduler::RoundRobin:
        return "round-robin";
    }
    ENA_FATAL("unknown DagScheduler ", static_cast<int>(s));
}

Expected<DagScheduler>
tryDagSchedulerFromName(const std::string &name)
{
    std::string n = toLower(name);
    for (DagScheduler s : allDagSchedulers()) {
        if (n == dagSchedulerName(s))
            return s;
    }
    if (n == "cp" || n == "heft" || n == "critical_path")
        return DagScheduler::CriticalPath;
    if (n == "minmin" || n == "min_min")
        return DagScheduler::MinMin;
    if (n == "rr" || n == "round_robin")
        return DagScheduler::RoundRobin;
    return Status::invalidArgument(
        "unknown scheduler '", name,
        "' (want critical-path, min-min, or round-robin)");
}

const std::vector<DagScheduler> &
allDagSchedulers()
{
    static const std::vector<DagScheduler> all = {
        DagScheduler::CriticalPath,
        DagScheduler::MinMin,
        DagScheduler::RoundRobin,
    };
    return all;
}

double
DagCostModel::totalTaskSeconds() const
{
    double sum = 0.0;
    for (double s : taskSeconds)
        sum += s;
    return sum;
}

DagCostModel
DagCostModel::build(const TaskDag &dag, const NodeEvaluator &eval,
                    const NodeConfig &cfg, const InterNodeNetwork &net)
{
    ENA_SPAN("taskgraph", "DagCostModel::build");
    DagCostModel cost;
    cost.edgeBandwidthBps = net.deliveredGbs(CommPattern::Halo) * 1e9;
    cost.edgeLatencySeconds = net.latencyUs(net.avgHops()) * 1e-6;

    // One evaluator call per distinct app, not per task (a 10k-task
    // wavefront is still one profile).
    const std::size_t napps = allApps().size();
    std::vector<double> flopsPerApp(napps, 0.0);
    std::vector<bool> known(napps, false);
    cost.taskSeconds.resize(dag.size());
    for (const DagTask &t : dag.tasks()) {
        const std::size_t a = static_cast<std::size_t>(t.app);
        ENA_ASSERT(a < napps, "bad App ", a, " on task ", t.id);
        if (!known[a]) {
            flopsPerApp[a] = eval.evaluate(cfg, t.app).perf.flops;
            known[a] = true;
        }
        cost.taskSeconds[t.id] = t.flops / flopsPerApp[a];
    }
    return cost;
}

double
criticalPathSeconds(const TaskDag &dag, const DagCostModel &cost)
{
    ENA_ASSERT(cost.taskSeconds.size() == dag.size(),
               "cost model sized for ", cost.taskSeconds.size(),
               " tasks, DAG has ", dag.size());
    std::vector<double> cp(dag.size(), 0.0);
    double best = 0.0;
    for (const DagTask &t : dag.tasks()) {
        double ready = 0.0;
        for (const DagEdge &d : t.deps)
            ready = std::max(ready, cp[d.task] + cost.edgeSeconds(d.bytes));
        cp[t.id] = ready + cost.taskSeconds[t.id];
        best = std::max(best, cp[t.id]);
    }
    return best;
}

namespace {

/**
 * Shared placement machinery: given the order tasks are considered in
 * and a node-choice rule, fill in the placements. All three policies
 * are instances of this loop.
 */
struct Placer
{
    const TaskDag &dag;
    const DagCostModel &cost;
    Schedule &out;
    /** Earliest instant each node is idle again. */
    std::vector<double> freeAt;

    Placer(const TaskDag &d, const DagCostModel &c, Schedule &o,
           std::size_t machine_slots)
        : dag(d), cost(c), out(o), freeAt(machine_slots, 0.0)
    {
    }

    /** When task @p t's inputs have all landed on node @p n. */
    double
    readyOn(const DagTask &t, int n) const
    {
        double ready = 0.0;
        for (const DagEdge &d : t.deps) {
            double arrive = out.placements[d.task].finishSeconds;
            if (out.placements[d.task].node != n)
                arrive += cost.edgeSeconds(d.bytes);
            ready = std::max(ready, arrive);
        }
        return ready;
    }

    /** Earliest finish time of @p t on node @p n. */
    double
    eftOn(const DagTask &t, int n) const
    {
        return std::max(freeAt[static_cast<std::size_t>(n)], readyOn(t, n)) +
               cost.taskSeconds[t.id];
    }

    /** Min-EFT node for @p t; ties break to the lowest node index. */
    int
    bestNode(const DagTask &t) const
    {
        int best = 0;
        double best_eft = eftOn(t, 0);
        for (int n = 1; n < static_cast<int>(freeAt.size()); ++n) {
            const double eft = eftOn(t, n);
            if (eft < best_eft) {
                best = n;
                best_eft = eft;
            }
        }
        return best;
    }

    /** Commit task @p t to node @p n and account its comm edges. */
    void
    place(const DagTask &t, int n)
    {
        const double start =
            std::max(freeAt[static_cast<std::size_t>(n)], readyOn(t, n));
        const double finish = start + cost.taskSeconds[t.id];
        out.placements[t.id] = {n, start, finish};
        freeAt[static_cast<std::size_t>(n)] = finish;
        out.makespanSeconds = std::max(out.makespanSeconds, finish);
        for (const DagEdge &d : t.deps) {
            // A zero-byte edge is free everywhere (edgeSeconds == 0.0
            // exactly) and is never charged — the zero-comm reduction
            // gate requires edgesCosted == 0, not just zero seconds.
            if (d.bytes == 0.0 || out.placements[d.task].node == n)
                continue;
            out.totalCommSeconds += cost.edgeSeconds(d.bytes);
            ++out.edgesCosted;
        }
    }
};

/**
 * HEFT upward rank: task time plus the heaviest downstream chain,
 * counting every edge as a cross-node transfer.
 */
std::vector<double>
upwardRanks(const TaskDag &dag, const DagCostModel &cost)
{
    std::vector<double> rank(dag.size(), 0.0);
    // Successors always have larger ids (topological insertion), so a
    // reverse id scan visits them first.
    for (std::size_t i = dag.size(); i-- > 0;) {
        const TaskId id = static_cast<TaskId>(i);
        double chain = 0.0;
        for (const DagEdge &e : dag.succs(id))
            chain = std::max(chain, cost.edgeSeconds(e.bytes) + rank[e.task]);
        rank[i] = cost.taskSeconds[i] + chain;
    }
    return rank;
}

void
scheduleCriticalPath(const TaskDag &dag, const DagCostModel &cost,
                     Placer &placer)
{
    const std::vector<double> rank = upwardRanks(dag, cost);
    std::vector<TaskId> order(dag.size());
    std::iota(order.begin(), order.end(), TaskId{0});
    // Descending rank; stable keeps equal-rank tasks in id order, so
    // predecessors (lower id, rank >= successor's) always come first.
    std::stable_sort(order.begin(), order.end(),
                     [&rank](TaskId a, TaskId b) {
                         return rank[a] > rank[b];
                     });
    for (TaskId id : order) {
        const DagTask &t = dag.task(id);
        placer.place(t, placer.bestNode(t));
    }
}

void
scheduleMinMin(const TaskDag &dag, Placer &placer)
{
    std::vector<int> pending(dag.size(), 0);
    for (const DagTask &t : dag.tasks())
        pending[t.id] = static_cast<int>(t.deps.size());
    std::vector<TaskId> ready;
    for (const DagTask &t : dag.tasks()) {
        if (pending[t.id] == 0)
            ready.push_back(t.id);
    }
    while (!ready.empty()) {
        // The ready task whose best finish time is smallest; ties break
        // to the lowest id (ready is maintained in ascending id order).
        std::size_t pick = 0;
        int pick_node = 0;
        double pick_eft = 0.0;
        for (std::size_t i = 0; i < ready.size(); ++i) {
            const DagTask &t = dag.task(ready[i]);
            const int n = placer.bestNode(t);
            const double eft = placer.eftOn(t, n);
            if (i == 0 || eft < pick_eft) {
                pick = i;
                pick_node = n;
                pick_eft = eft;
            }
        }
        const TaskId id = ready[pick];
        placer.place(dag.task(id), pick_node);
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));
        std::vector<TaskId> unlocked;
        for (const DagEdge &e : dag.succs(id)) {
            if (--pending[e.task] == 0)
                unlocked.push_back(e.task);
        }
        // Keep the ready list sorted by id so ties stay deterministic.
        std::sort(unlocked.begin(), unlocked.end());
        for (TaskId u : unlocked) {
            ready.insert(std::lower_bound(ready.begin(), ready.end(), u),
                         u);
        }
    }
}

void
scheduleRoundRobin(const TaskDag &dag, int nodes, Placer &placer)
{
    for (const DagTask &t : dag.tasks())
        placer.place(t, static_cast<int>(t.id % static_cast<TaskId>(nodes)));
}

} // anonymous namespace

Schedule
scheduleDag(const TaskDag &dag, const DagCostModel &cost,
            DagScheduler policy, int nodes)
{
    ENA_ASSERT(nodes > 0, "cannot schedule onto ", nodes, " nodes");
    ENA_ASSERT(cost.taskSeconds.size() == dag.size(),
               "cost model sized for ", cost.taskSeconds.size(),
               " tasks, DAG has ", dag.size());
    ENA_SPAN("taskgraph", "scheduleDag");
    const double t0 = telemetry::nowUs();

    Schedule s;
    s.scheduler = policy;
    s.nodes = nodes;
    s.placements.resize(dag.size());
    s.totalCompSeconds = cost.totalTaskSeconds();

    // Min-EFT placement never touches more nodes than there are tasks
    // (an idle node is always at least as good as a busy one), and
    // round-robin wraps below the same bound, so the machine can be
    // modeled with min(nodes, tasks) slots: identical placements, no
    // 100k-entry scan per task.
    const std::size_t slots =
        std::min<std::size_t>(static_cast<std::size_t>(nodes), dag.size());
    Placer placer(dag, cost, s, slots);

    switch (policy) {
      case DagScheduler::CriticalPath:
        scheduleCriticalPath(dag, cost, placer);
        break;
      case DagScheduler::MinMin:
        scheduleMinMin(dag, placer);
        break;
      case DagScheduler::RoundRobin:
        scheduleRoundRobin(dag, nodes, placer);
        break;
    }

    tasksScheduledCounter().add(dag.size());
    edgesCostedCounter().add(s.edgesCosted);
    scheduleLatencyHistogram().sample(telemetry::nowUs() - t0);
    return s;
}

} // namespace ena
