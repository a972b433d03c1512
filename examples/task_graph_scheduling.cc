/**
 * @file
 * HSA concurrency walkthrough (paper Section II-A1): dependent-kernel
 * task graphs dispatched through user-mode AQL queues, and why the HSA
 * dispatch path matters for fine-grained DAGs — the paper's cited
 * approach for programming the EHP [13].
 *
 * Builds a wavefront-pattern DAG (a 2D sweep, SNAP-like) through the
 * shared TaskDag::wavefront generator — the same graph the
 * cluster-level scheduler layer studies (see taskgraph_explorer) —
 * maps it onto the 8 GPU chiplets' queues, and compares user-mode
 * dispatch latency against a legacy driver-mediated path at
 * cycle level.
 *
 * Usage: task_graph_scheduling [GRID_N]
 */

#include <iostream>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "taskgraph/aql_replay.hh"
#include "taskgraph/task_dag.hh"
#include "util/status.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

using namespace ena;

namespace {

struct RunResult
{
    double makespanUs;
    double criticalPathUs;
    double efficiency;
};

/** Replay the shared wavefront DAG through the cycle-level HSA model. */
RunResult
runSweep(const TaskDag &dag, Tick dispatch_latency, Tick kernel_ticks)
{
    Simulation sim;
    AqlQueueParams qp;
    qp.dispatchLatency = dispatch_latency;
    qp.ringSlots = dag.size();
    std::vector<AqlQueue *> queues;
    for (int q = 0; q < 8; ++q) {
        queues.push_back(sim.create<AqlQueue>(
            strformat("gpu%d.queue", q), qp));
    }

    // The wavefront's layer is the anti-diagonal i+j, round-robined
    // across chiplets.
    std::vector<Tick> ticks(dag.size(), kernel_ticks);
    std::vector<int> agents;
    for (const DagTask &t : dag.tasks())
        agents.push_back(t.layer % 8);
    AqlReplayResult run = replayOnAqlQueues(sim, dag, queues, ticks, agents);

    RunResult r;
    r.makespanUs = static_cast<double>(run.makespan) / tickPerUs;
    r.criticalPathUs =
        static_cast<double>(criticalPathTicks(dag, ticks)) / tickPerUs;
    r.efficiency = r.criticalPathUs / r.makespanUs;
    return r;
}

/** Parse GRID_N: an integer in [2, 512] (the ring must fit n^2). */
Expected<int>
tryGridSize(const std::string &arg)
{
    std::optional<long long> n = parseInt(arg);
    if (!n) {
        return Status::invalidArgument("grid size '", arg,
                                       "' is not an integer");
    }
    if (*n < 2 || *n > 512)
        return Status::outOfRange("grid size must be in [2, 512], got ",
                                  *n);
    return static_cast<int>(*n);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int n = 24;
    if (argc > 1) {
        Expected<int> parsed = tryGridSize(argv[1]);
        if (!parsed.ok()) {
            std::cerr << "task_graph_scheduling: "
                      << parsed.status().toString()
                      << "\nUsage: task_graph_scheduling [GRID_N]\n";
            return 2;
        }
        n = *parsed;
    }

    const Tick kernel = 5 * tickPerUs;      // 5 us micro-kernels
    const Tick hsa = 200 * tickPerNs;       // user-mode dispatch
    const Tick legacy = 8 * tickPerUs;      // driver-mediated launch

    std::cout << "2D wavefront sweep, " << n << "x" << n
              << " dependent 5-us kernels over 8 GPU queues\n\n";

    // The cycle-level model carries its own kernel duration; the
    // generator's flops/bytes are placeholders here.
    TaskDag dag = TaskDag::wavefront(n, 1.0, 0.0, App::SNAP);

    RunResult h = runSweep(dag, hsa, kernel);
    RunResult l = runSweep(dag, legacy, kernel);

    TextTable t({"dispatch path", "latency", "makespan (us)",
                 "critical path (us)", "efficiency"});
    t.row()
        .add("HSA user-mode queues")
        .add("200 ns")
        .add(h.makespanUs, "%.1f")
        .add(h.criticalPathUs, "%.1f")
        .add(h.efficiency, "%.2f");
    t.row()
        .add("legacy driver launch")
        .add("8 us")
        .add(l.makespanUs, "%.1f")
        .add(l.criticalPathUs, "%.1f")
        .add(l.efficiency, "%.2f");
    t.print(std::cout);

    std::cout << "\nHSA speedup on this DAG: "
              << strformat("%.2fx", l.makespanUs / h.makespanUs)
              << "\n\nFine-grained dependent kernels are exactly the "
                 "pattern the EHP's HPC workloads\n(sweeps, AMR, "
                 "multigrid) produce; cheap user-mode dispatch keeps "
                 "the critical path\nkernel-bound instead of "
                 "launch-bound.\n";
    return 0;
}
