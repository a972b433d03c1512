/**
 * @file
 * Cluster-level task-graph workloads (paper Section II-A1): the HPC
 * applications that motivate the EHP are really DAGs of dependent
 * kernels — sweeps, AMR, multigrid — not the three static
 * bulk-synchronous patterns CommModel reduces them to. TaskDag is the
 * shared workload description for that layer: an immutable DAG of
 * compute tasks (flops plus a KernelProfile-typed App naming the
 * memory behaviour) connected by communication edges carrying bytes.
 *
 * Tasks are inserted in topological order (dependencies must already
 * exist), which guarantees acyclicity by construction. The HSA
 * walkthrough replays a wavefront() DAG through the cycle-level AQL
 * queue model (taskgraph/aql_replay.hh).
 *
 * Generators cover the canonical shapes: wavefront (2D sweep, SNAP),
 * stencil-halo (timestepped domain exchange, CoMD/LULESH), fork-join
 * (bulk-synchronous phases), reduction-tree (dot products, time-step
 * control), and random-layered (irregular AMR-like graphs, seeded and
 * deterministic). A DAG is also loadable from the repo's "key = value"
 * config files under the "taskgraph." prefix (task_dag_io.hh).
 */

#ifndef ENA_TASKGRAPH_TASK_DAG_HH
#define ENA_TASKGRAPH_TASK_DAG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

using TaskId = std::uint32_t;

/** The canned DAG shapes the generators produce. */
enum class DagShape
{
    Wavefront,      ///< 2D sweep: (i,j) waits on (i-1,j) and (i,j-1)
    StencilHalo,    ///< timesteps x ranks with neighbor halo edges
    ForkJoin,       ///< serial fork -> parallel stage -> join phases
    ReductionTree,  ///< leaves folded by a fixed fan-in
    RandomLayered,  ///< seeded random edges between adjacent layers
};

/** Display name ("wavefront", "stencil-halo", ...). */
std::string dagShapeName(DagShape s);

/** Parse a shape name (case-insensitive). */
Expected<DagShape> tryDagShapeFromName(const std::string &name);

/** All generator shapes, in enum order. */
const std::vector<DagShape> &allDagShapes();

/** One edge endpoint: the peer task and the bytes moved on the edge. */
struct DagEdge
{
    TaskId task = 0;
    double bytes = 0.0;
};

/** One node of the DAG. */
struct DagTask
{
    TaskId id = 0;
    double flops = 0.0;       ///< work in this task
    App app = App::MaxFlops;  ///< KernelProfile-typed memory behaviour
    int layer = 0;            ///< topological depth (0 for roots)
    std::vector<DagEdge> deps; ///< predecessors with edge bytes
};

class TaskDag
{
  public:
    explicit TaskDag(std::string name = "dag") : name_(std::move(name)) {}

    /**
     * Add a task. Dependencies must already exist (topological
     * insertion order), which also guarantees acyclicity. The task's
     * layer is 1 + the deepest predecessor layer.
     */
    TaskId addTask(double flops, App app, std::vector<DagEdge> deps = {});

    const std::string &name() const { return name_; }
    std::size_t size() const { return tasks_.size(); }
    std::size_t numEdges() const { return edges_; }

    const DagTask &task(TaskId id) const;
    const std::vector<DagTask> &tasks() const { return tasks_; }

    /** Successor edges of @p id ({successor, bytes}). */
    const std::vector<DagEdge> &succs(TaskId id) const;

    /** Sum of task flops across the DAG. */
    double totalFlops() const;

    /** Sum of edge bytes across the DAG. */
    double totalEdgeBytes() const;

    /** Number of layers (0 for an empty DAG). */
    int depth() const;

    /** Largest per-layer task count (peak generator parallelism). */
    std::size_t maxLayerWidth() const;

    /**
     * Sanity-check the DAG: non-empty, positive finite task flops,
     * non-negative finite edge bytes. The error names the offending
     * task or edge.
     */
    Status tryValidate() const;

    /** Short "wavefront n=24 (576 tasks)" label for tables. */
    std::string label() const;

    // --- generators (all deterministic) ---

    /**
     * A 2D wavefront sweep over an n x n grid: task (i,j) depends on
     * (i-1,j) and (i,j-1), row-major insertion, layer == i + j (the
     * anti-diagonal). This is the SNAP-like grid the HSA example maps
     * onto AQL queues.
     */
    static TaskDag wavefront(int n, double task_flops, double edge_bytes,
                             App app);

    /**
     * @p steps timesteps over @p ranks domain partitions: each step's
     * rank r depends on ranks r-1, r, r+1 of the previous step (halo
     * exchange between neighbors).
     */
    static TaskDag stencilHalo(int ranks, int steps, double task_flops,
                               double edge_bytes, App app);

    /**
     * @p stages bulk-synchronous phases: a serial fork task fans out to
     * @p width parallel tasks which join into the next fork.
     */
    static TaskDag forkJoin(int width, int stages, double task_flops,
                            double edge_bytes, App app);

    /**
     * @p leaves inputs folded by @p fanin per reduction step until one
     * task remains.
     */
    static TaskDag reductionTree(int leaves, int fanin, double task_flops,
                                 double edge_bytes, App app);

    /**
     * @p layers layers of @p width tasks; each task draws an edge from
     * every previous-layer task with probability @p edge_prob (at least
     * one, so no spurious roots), decided by a hash of (seed, src, dst)
     * — identical at any thread count and across reruns.
     */
    static TaskDag randomLayered(int layers, int width, double edge_prob,
                                 std::uint64_t seed, double task_flops,
                                 double edge_bytes, App app);

  private:
    std::string name_;
    std::vector<DagTask> tasks_;
    std::vector<std::vector<DagEdge>> succs_;
    std::size_t edges_ = 0;
};

} // namespace ena

#endif // ENA_TASKGRAPH_TASK_DAG_HH
