/**
 * @file
 * Fault-aware DAG scheduling: what RAS does to a schedule's makespan,
 * the task-graph counterpart of ResilientClusterEvaluator (which
 * degrades steady-state throughput). Reuses the same ResilienceSpec —
 * protection choices feed FaultModel for the per-node MTTF, the RMT
 * policy feeds RmtModel for a per-app execution slowdown — and
 * composes them onto a Schedule as a deterministic expected-value
 * model:
 *
 *   1. RMT inflates each task's execution time by its app's slowdown
 *      (redundant wavefronts steal throughput), lengthening the
 *      schedule the baseline policy produces.
 *   2. Node failures interrupt the run: the expected failure count is
 *      node-hours / MTTF. Each failure costs a spare-node takeover
 *      (failoverSeconds) plus re-execution of the half-done task.
 *   3. Failures beyond the spare pool shrink the machine, stretching
 *      the remaining work by the capacity lost.
 *
 * Exact-reduction discipline: ResilienceSpec::none() multiplies by
 * exactly 1.0 and adds exactly 0.0, so the effective makespan equals
 * the fault-free Schedule bit-for-bit (gated by tests/taskgraph).
 * Expected values keep the model a pure function of its inputs — no
 * RNG — matching the repo's determinism bar.
 */

#ifndef ENA_TASKGRAPH_RESILIENT_SCHEDULE_HH
#define ENA_TASKGRAPH_RESILIENT_SCHEDULE_HH

#include "cluster/resilient_cluster.hh"
#include "ras/fault_model.hh"
#include "ras/rmt.hh"
#include "taskgraph/scheduler.hh"

namespace ena {

/** One DAG scheduled onto a machine that can fail. */
struct ResilientSchedule
{
    Schedule schedule;              ///< RMT-inflated baseline schedule

    double nodeMttfHours = 0.0;     ///< per-node MTTF under the spec
    double rmtSlowdown = 1.0;       ///< worst per-app slowdown applied
    int usedNodes = 0;              ///< distinct nodes the schedule touches
    int spareNodes = 0;             ///< standby pool absorbing failures

    double expectedFailures = 0.0;  ///< node-hours / MTTF over the run
    double coveredFailures = 0.0;   ///< absorbed by the spare pool
    double reexecSeconds = 0.0;     ///< failover + lost-work re-execution
    double stretchFactor = 1.0;     ///< capacity loss beyond the spares

    /** schedule.makespan * stretch + re-execution; == makespan with
     *  faults disabled. */
    double effectiveMakespanSeconds = 0.0;

    /** Effective / fault-free makespan (>= 1). */
    double
    degradation() const
    {
        return schedule.makespanSeconds > 0.0
                   ? effectiveMakespanSeconds / schedule.makespanSeconds
                   : 1.0;
    }
};

class ResilientDagScheduler
{
  public:
    /**
     * @param failover_seconds spare-node takeover cost per failure
     *        (checkpoint restore + requeue; order tens of seconds).
     */
    ResilientDagScheduler(const NodeEvaluator &eval, ResilienceSpec spec,
                          double failover_seconds = 30.0);

    /**
     * Schedule @p dag under @p policy on @p nodes nodes (plus
     * @p spare_nodes standbys) and degrade the makespan by the spec's
     * fault and RMT models. Deterministic at any thread count.
     */
    ResilientSchedule evaluate(const TaskDag &dag, const NodeConfig &cfg,
                               const InterNodeNetwork &net,
                               DagScheduler policy, int nodes,
                               int spare_nodes) const;

    const ResilienceSpec &spec() const { return spec_; }

  private:
    const NodeEvaluator &eval_;
    ResilienceSpec spec_;
    FaultModel fm_;
    RmtModel rmt_;
    double failoverSeconds_;
};

} // namespace ena

#endif // ENA_TASKGRAPH_RESILIENT_SCHEDULE_HH
