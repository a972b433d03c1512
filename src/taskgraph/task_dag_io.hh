/**
 * @file
 * Config-file bindings for the task-graph layer, mirroring
 * cluster_config_io.hh: the workload is described under the
 * "taskgraph." prefix so one file can hold the full scenario (ehp.* /
 * extmem.* for the node, cluster.* for the fabric, taskgraph.* for the
 * DAG) and be loaded by each layer's reader. Every key is optional
 * (defaults = TaskGraphSpec{}).
 *
 * Unknown "taskgraph." keys are rejected to catch typos; keys outside
 * the prefix are ignored (they belong to the node/cluster layers).
 */

#ifndef ENA_TASKGRAPH_TASK_DAG_IO_HH
#define ENA_TASKGRAPH_TASK_DAG_IO_HH

#include <cmath>
#include <cstdint>

#include "taskgraph/task_dag.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace ena {

/**
 * A generator recipe for a TaskDag: which shape, how big, and how much
 * work/communication each task and edge carries. This is the form the
 * config file, the explorer CLI, and the server's taskgraph_eval op all
 * share; build() turns it into the concrete DAG.
 */
struct TaskGraphSpec
{
    DagShape shape = DagShape::Wavefront;
    App app = App::MaxFlops;
    int size = 16;             ///< grid n / ranks / width / leaves
    int depth = 8;             ///< steps / stages / layers
    double taskGflops = 64.0;  ///< work per task, in Gflops
    double edgeMb = 16.0;      ///< bytes per edge, in MB
    double edgeProb = 0.35;    ///< random-layered edge probability
    std::uint64_t seed = 1;    ///< random-layered seed
    int fanin = 2;             ///< reduction-tree fan-in

    Status tryValidate() const
    {
        if (size <= 0)
            return Status::outOfRange("taskgraph.size must be positive, got ",
                                      size);
        if (depth <= 0)
            return Status::outOfRange(
                "taskgraph.depth must be positive, got ", depth);
        if (!(taskGflops > 0.0) || !std::isfinite(taskGflops)) {
            return Status::outOfRange(
                "taskgraph.task_gflops must be positive and finite, got ",
                taskGflops);
        }
        if (edgeMb < 0.0 || !std::isfinite(edgeMb)) {
            return Status::outOfRange(
                "taskgraph.edge_mb must be non-negative and finite, got ",
                edgeMb);
        }
        if (!(edgeProb >= 0.0 && edgeProb <= 1.0)) {
            return Status::outOfRange(
                "taskgraph.edge_prob must be in [0, 1], got ", edgeProb);
        }
        if (fanin < 2)
            return Status::outOfRange("taskgraph.fanin must be >= 2, got ",
                                      fanin);
        return Status();
    }

    /** Instantiate the DAG this spec describes. */
    TaskDag build() const
    {
        const double flops = taskGflops * 1e9;
        const double bytes = edgeMb * 1e6;
        switch (shape) {
          case DagShape::Wavefront:
            return TaskDag::wavefront(size, flops, bytes, app);
          case DagShape::StencilHalo:
            return TaskDag::stencilHalo(size, depth, flops, bytes, app);
          case DagShape::ForkJoin:
            return TaskDag::forkJoin(size, depth, flops, bytes, app);
          case DagShape::ReductionTree:
            return TaskDag::reductionTree(size, fanin, flops, bytes, app);
          case DagShape::RandomLayered:
            return TaskDag::randomLayered(depth, size, edgeProb, seed,
                                          flops, bytes, app);
        }
        ENA_FATAL("unknown DagShape ", static_cast<int>(shape));
    }
};

/** TaskGraphSpec's keys, in the order they are read (util/config.hh). */
template <typename F>
void
configFields(TaskGraphSpec &s, F &&field)
{
    field("taskgraph.shape", s.shape, dagShapeName, tryDagShapeFromName);
    field("taskgraph.app", s.app, appName, tryAppFromName);
    field("taskgraph.size", s.size);
    field("taskgraph.depth", s.depth);
    field("taskgraph.task_gflops", s.taskGflops);
    field("taskgraph.edge_mb", s.edgeMb);
    field("taskgraph.edge_prob", s.edgeProb);
    field("taskgraph.seed", s.seed);
    field("taskgraph.fanin", s.fanin);
}

/** Load a TaskGraphSpec; errors carry the key and its source:line. */
inline Expected<TaskGraphSpec>
tryTaskGraphSpecFromConfig(const Config &cfg)
{
    return readConfigFields<TaskGraphSpec>(
        cfg, {"taskgraph-config", "taskgraph."});
}

/** Serialize a TaskGraphSpec back into a Config ("taskgraph." keys). */
inline Config
taskGraphSpecToConfig(const TaskGraphSpec &s)
{
    return writeConfigFields(s);
}

} // namespace ena

#endif // ENA_TASKGRAPH_TASK_DAG_IO_HH
