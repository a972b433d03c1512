#include "taskgraph/resilient_schedule.hh"

#include <algorithm>
#include <vector>

#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace ena {

ResilientDagScheduler::ResilientDagScheduler(const NodeEvaluator &eval,
                                             ResilienceSpec spec,
                                             double failover_seconds)
    : eval_(eval), spec_(spec), fm_(spec.ras),
      failoverSeconds_(failover_seconds)
{
    spec_.validate();
    ENA_ASSERT(failover_seconds >= 0.0, "negative failover cost ",
               failover_seconds);
}

ResilientSchedule
ResilientDagScheduler::evaluate(const TaskDag &dag, const NodeConfig &cfg,
                                const InterNodeNetwork &net,
                                DagScheduler policy, int nodes,
                                int spare_nodes) const
{
    ENA_ASSERT(spare_nodes >= 0, "negative spare pool ", spare_nodes);
    ENA_SPAN("taskgraph", "ResilientDagScheduler::evaluate");

    DagCostModel cost = DagCostModel::build(dag, eval_, cfg, net);

    ResilientSchedule r;
    r.spareNodes = spare_nodes;

    // 1. RMT steals GPU throughput for redundant execution: inflate
    // each task by its app's slowdown. Off multiplies by exactly 1.0
    // (RmtOutcome default), and the Off branch is skipped entirely, so
    // the fault-free cost model is bitwise untouched.
    if (spec_.rmtPolicy != RmtPolicy::Off) {
        const std::size_t napps = allApps().size();
        std::vector<double> slowdown(napps, 1.0);
        std::vector<bool> known(napps, false);
        for (const DagTask &t : dag.tasks()) {
            const std::size_t a = static_cast<std::size_t>(t.app);
            if (!known[a]) {
                EvalResult er = eval_.evaluate(cfg, t.app);
                slowdown[a] =
                    rmt_.evaluate(er.perf.activity, spec_.rmtPolicy)
                        .slowdown;
                known[a] = true;
                r.rmtSlowdown = std::max(r.rmtSlowdown, slowdown[a]);
            }
            cost.taskSeconds[t.id] *= slowdown[a];
        }
    }

    r.schedule = scheduleDag(dag, cost, policy, nodes);

    // Distinct nodes the placements actually touch (the slot bound in
    // scheduleDag keeps indices < min(nodes, tasks)).
    std::vector<bool> touched(
        std::min<std::size_t>(static_cast<std::size_t>(nodes), dag.size()),
        false);
    for (const TaskPlacement &p : r.schedule.placements) {
        if (!touched[static_cast<std::size_t>(p.node)]) {
            touched[static_cast<std::size_t>(p.node)] = true;
            ++r.usedNodes;
        }
    }

    if (!spec_.faultsEnabled) {
        // Ideal never-failing machine: the exact reduction. No terms
        // are added or scaled, so effective == makespan bitwise.
        r.nodeMttfHours = 0.0;
        r.effectiveMakespanSeconds = r.schedule.makespanSeconds;
        return r;
    }

    // 2. Node failures interrupt the run. Expected count over the
    // schedule: node-hours of exposure / per-node MTTF.
    r.nodeMttfHours = fm_.nodeMttfHours(cfg);
    const double makespanHours = r.schedule.makespanSeconds / 3600.0;
    r.expectedFailures = r.nodeMttfHours > 0.0
                             ? static_cast<double>(r.usedNodes) *
                                   makespanHours / r.nodeMttfHours
                             : 0.0;
    r.coveredFailures =
        std::min(r.expectedFailures, static_cast<double>(spare_nodes));

    // Each failure pays a spare takeover plus re-execution of the
    // interrupted task (half a mean task of lost work, in expectation).
    const double meanTask =
        dag.size() > 0
            ? cost.totalTaskSeconds() / static_cast<double>(dag.size())
            : 0.0;
    r.reexecSeconds =
        r.expectedFailures * (failoverSeconds_ + 0.5 * meanTask);

    // 3. Failures beyond the spare pool shrink the machine: the
    // surviving nodes carry the dead nodes' share of the work.
    const double uncovered = r.expectedFailures - r.coveredFailures;
    if (uncovered > 0.0 && r.usedNodes > 0) {
        const double lost = std::min(
            uncovered, static_cast<double>(r.usedNodes) - 1.0);
        r.stretchFactor = static_cast<double>(r.usedNodes) /
                          (static_cast<double>(r.usedNodes) - lost);
    }

    r.effectiveMakespanSeconds =
        r.schedule.makespanSeconds * r.stretchFactor + r.reexecSeconds;
    return r;
}

} // namespace ena
