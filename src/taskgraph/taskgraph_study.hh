/**
 * @file
 * Task-graph design-space studies: how scheduler choice, fabric
 * topology, and machine size move a DAG workload's makespan, and what
 * co-scheduled jobs do to each other. The task-graph counterpart of
 * ScaleOutStudy, with the same execution discipline:
 *
 *  - cells shard over the process-wide ThreadPool, one output slot per
 *    grid index, serial reduction in index order — bit-identical to a
 *    serial run at any thread count (gated by bench_taskgraph and
 *    tests/taskgraph);
 *  - each cell prices the DAG with DagCostModel::build, which calls
 *    the node evaluator once per distinct app, not once per task;
 *  - each cell runs through runSweepCell (core/sweep_cell.hh): an
 *    invalid or throwing cell is quarantined (ok == false, error says
 *    why), not fatal — one bad topology/node-count pairing cannot kill
 *    a sweep.
 *
 * The job-mix study models interference the way CommModel models
 * congestion: co-scheduled jobs split the machine evenly and the
 * fabric's delivered edge bandwidth divides by the job count. A
 * zero-communication DAG is therefore interference-free by
 * construction (slowdown exactly 1.0) — the reduction the tests gate.
 */

#ifndef ENA_TASKGRAPH_TASKGRAPH_STUDY_HH
#define ENA_TASKGRAPH_TASKGRAPH_STUDY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/cluster_config.hh"
#include "core/node_evaluator.hh"
#include "taskgraph/scheduler.hh"

namespace ena {

/** One cell of the scheduler x topology x node-count sweep. */
struct TaskGraphSweepPoint
{
    std::size_t scheduler = 0;      ///< index into the scheduler list
    ClusterTopology topology = ClusterTopology::FatTree;
    int nodes = 0;

    double makespanSeconds = 0.0;
    double criticalPathSeconds = 0.0;  ///< all-edges-remote heaviest path
    double speedup = 0.0;           ///< serial work / makespan
    double efficiency = 0.0;        ///< speedup / nodes
    double utilization = 0.0;       ///< busy fraction of the machine
    double commSeconds = 0.0;       ///< charged cross-node transfer time
    std::size_t edgesCosted = 0;

    /** False when the cell was quarantined; @p error says why. */
    bool ok = true;
    std::string error;
};

/** One job's view of a shared machine. */
struct JobInterference
{
    std::string dag;                ///< TaskDag::label() of the job
    double aloneSeconds = 0.0;      ///< makespan with the fabric to itself
    double sharedSeconds = 0.0;     ///< makespan with the fabric split
    double slowdown = 1.0;          ///< shared / alone (>= 1)
};

/** The job-mix interference study's answer. */
struct JobMixResult
{
    int jobs = 0;
    int nodesPerJob = 0;            ///< even machine split
    std::vector<JobInterference> perJob;
    double meanSlowdown = 1.0;
    double worstSlowdown = 1.0;
};

class TaskGraphStudy
{
  public:
    /** @p base supplies link/shape parameters; sweeps vary the node
     *  count and topology on top of it. */
    TaskGraphStudy(const NodeEvaluator &eval, ClusterConfig base);

    /**
     * Scheduler x topology x node-count sweep, flattened
     * scheduler-major then topology-major then node-count. Invalid or
     * throwing cells are quarantined (ok == false), not fatal.
     */
    std::vector<TaskGraphSweepPoint> sweep(
        const TaskDag &dag, const NodeConfig &cfg,
        const std::vector<DagScheduler> &schedulers,
        const std::vector<ClusterTopology> &topologies,
        const std::vector<int> &node_counts) const;

    /**
     * Co-schedule @p dags on @p total_nodes nodes split evenly: each
     * job runs alone on its partition, then with the fabric's edge
     * bandwidth divided by the job count, and the slowdown is the
     * ratio. Jobs evaluate in parallel, one slot each; the mean folds
     * serially in index order.
     */
    JobMixResult jobMix(const std::vector<TaskDag> &dags,
                        const NodeConfig &cfg, DagScheduler policy,
                        int total_nodes) const;

  private:
    const NodeEvaluator &eval_;
    ClusterConfig base_;
};

} // namespace ena

#endif // ENA_TASKGRAPH_TASKGRAPH_STUDY_HH
