/**
 * @file
 * Cycle-level replay of a TaskDag through HSA user-mode AQL queues
 * (paper Section II-A1; Puthoor et al. [13] implement DAGs with HSA).
 * Each task is one kernel-dispatch packet whose completion signal
 * releases the task's successors, so the replay measures what dispatch
 * latency costs a fine-grained DAG (see
 * examples/task_graph_scheduling.cc).
 */

#ifndef ENA_TASKGRAPH_AQL_REPLAY_HH
#define ENA_TASKGRAPH_AQL_REPLAY_HH

#include <vector>

#include "hsa/aql_queue.hh"
#include "sim/simulation.hh"
#include "taskgraph/task_dag.hh"

namespace ena {

/** Completion times of one replay. */
struct AqlReplayResult
{
    std::vector<Tick> finishedAt;  ///< per task, indexed by TaskId
    Tick makespan = 0;             ///< the last completion
};

/**
 * Replay @p dag on @p queues: task t runs for @p ticks[t] on
 * queues[@p agents[t]]. Roots are submitted in id order; when a task
 * completes, each successor whose last predecessor it was is submitted,
 * in successor-id order (TaskDag::succs). Runs @p sim until every task
 * has completed.
 */
AqlReplayResult replayOnAqlQueues(Simulation &sim, const TaskDag &dag,
                                  const std::vector<AqlQueue *> &queues,
                                  const std::vector<Tick> &ticks,
                                  const std::vector<int> &agents);

/**
 * The dependency-weighted longest path through @p dag with task
 * durations @p ticks: the replay's makespan lower bound (it ignores
 * queue contention and dispatch latency).
 */
Tick criticalPathTicks(const TaskDag &dag, const std::vector<Tick> &ticks);

} // namespace ena

#endif // ENA_TASKGRAPH_AQL_REPLAY_HH
