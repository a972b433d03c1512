/**
 * @file
 * Gates + throughput for the task-graph scheduling layer. Three
 * bit-identity gates (fatal to the exit code):
 *
 *  (a) zero-comm reduction: a DAG whose edges carry zero bytes, given
 *      at least as many nodes as tasks, must produce a makespan equal
 *      to the analytic critical path bit-for-bit under every scheduler;
 *  (b) serial-vs-parallel: a TaskGraphStudy sweep at one thread must be
 *      bit-identical, field for field, to the same sweep at many;
 *  (c) local-vs-server: the taskgraph_eval op through a live ena-server
 *      over a Unix socket must reproduce the local schedule's doubles
 *      exactly (the wire writes each double in its shortest
 *      round-trip form and reads it back exactly).
 *
 * Plus a throughput measurement (schedules/sec, tasks/sec) that is
 * warn-only: a slow machine prints a warning, never fails the gate.
 *
 * Usage: bench_taskgraph [REPS] [--json <path>]
 *        (default 200 scheduleDag calls per policy for throughput)
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "cluster/cluster_config_io.hh"
#include "common/node_config_io.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "taskgraph/task_dag_io.hh"
#include "taskgraph/taskgraph_study.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

int failures = 0;

void
check(bool cond, const std::string &what)
{
    if (cond) {
        std::cout << "  ok: " << what << "\n";
    } else {
        std::cerr << "  FAIL: " << what << "\n";
        ++failures;
    }
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
samePoint(const TaskGraphSweepPoint &a, const TaskGraphSweepPoint &b)
{
    return a.scheduler == b.scheduler && a.topology == b.topology &&
           a.nodes == b.nodes &&
           doubleBits(a.makespanSeconds) == doubleBits(b.makespanSeconds) &&
           doubleBits(a.criticalPathSeconds) ==
               doubleBits(b.criticalPathSeconds) &&
           doubleBits(a.speedup) == doubleBits(b.speedup) &&
           doubleBits(a.efficiency) == doubleBits(b.efficiency) &&
           doubleBits(a.utilization) == doubleBits(b.utilization) &&
           doubleBits(a.commSeconds) == doubleBits(b.commSeconds) &&
           a.edgesCosted == b.edgesCosted && a.ok == b.ok &&
           a.error == b.error;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int reps = 200;
    if (argc > 1 && argv[1][0] != '-')
        reps = std::atoi(argv[1]);
    if (reps < 1)
        reps = 1;

    bench::banner("the task-graph scheduling layer",
                  "Zero-comm analytic reduction, serial-vs-parallel "
                  "sweep identity, local-vs-server identity");

    const NodeConfig node = NodeConfig::bestMean();
    ClusterConfig cluster;
    cluster.nodes = 256;
    InterNodeNetwork net(cluster);

    // --- (a) zero-comm reduction: makespan == critical path bitwise.
    std::cout << "zero-comm reduction gate (wavefront 12x12, 0-byte "
                 "edges, nodes >= tasks):\n";
    TaskDag zc = TaskDag::wavefront(12, 64e9, 0.0, App::SNAP);
    DagCostModel zcost =
        DagCostModel::build(zc, bench::evaluator(), node, net);
    const double cp = criticalPathSeconds(zc, zcost);
    for (DagScheduler s : allDagSchedulers()) {
        Schedule sch =
            scheduleDag(zc, zcost, s, static_cast<int>(zc.size()));
        check(doubleBits(sch.makespanSeconds) == doubleBits(cp),
              dagSchedulerName(s) +
                  " makespan reduces bit-identically to the "
                  "analytic critical path");
        check(sch.totalCommSeconds == 0.0 && sch.edgesCosted == 0,
              dagSchedulerName(s) + " charges no communication");
    }

    // --- (b) serial-vs-parallel sweep identity.
    std::cout << "\nserial-vs-parallel sweep gate:\n";
    TaskDag dag =
        TaskDag::randomLayered(12, 10, 0.35, 7, 64e9, 16e6, App::CoMD);
    const std::vector<ClusterTopology> topologies = {
        ClusterTopology::FatTree, ClusterTopology::Dragonfly,
        ClusterTopology::Torus3D};
    const std::vector<int> counts = {8, 32, 128, 256};
    TaskGraphStudy study(bench::evaluator(), cluster);

    ThreadPool::setGlobalThreads(1);
    auto serial =
        study.sweep(dag, node, allDagSchedulers(), topologies, counts);
    ThreadPool::setGlobalThreads(0);  // back to hardware concurrency
    auto t0 = std::chrono::steady_clock::now();
    auto parallel =
        study.sweep(dag, node, allDagSchedulers(), topologies, counts);
    const double sweepSec = secondsSince(t0);

    bool identical = serial.size() == parallel.size();
    for (std::size_t i = 0; identical && i < serial.size(); ++i)
        identical = samePoint(serial[i], parallel[i]);
    check(identical,
          "parallel sweep is bit-identical to the serial sweep (" +
              std::to_string(serial.size()) + " cells)");

    // --- (c) local-vs-server identity through taskgraph_eval.
    std::cout << "\nlocal-vs-server gate (taskgraph_eval):\n";
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(
        "/tmp/ena-bench-" + std::to_string(::getpid()) + ".sock");
    opts.workers = 4;
    auto server = EvalServer::start(opts);
    if (!server.ok()) {
        std::cerr << "cannot start server: "
                  << server.status().toString() << "\n";
        return 1;
    }
    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);

    TaskGraphSpec spec;
    spec.shape = DagShape::StencilHalo;
    spec.app = App::HPGMG;
    spec.size = 16;
    spec.depth = 12;
    spec.taskGflops = 48.0;
    spec.edgeMb = 8.0;
    const std::string cfgText = nodeConfigToConfig(node).toString() +
                                clusterConfigToConfig(cluster).toString() +
                                taskGraphSpecToConfig(spec).toString();
    TaskDag sdag = spec.build();
    DagCostModel scost =
        DagCostModel::build(sdag, bench::evaluator(), node, net);

    bool serverIdentical = true;
    for (DagScheduler s : allDagSchedulers()) {
        Schedule local = scheduleDag(sdag, scost, s, cluster.nodes);
        wire::JsonValue params = wire::JsonValue::object();
        params.set("config", cfgText);
        params.set("scheduler", dagSchedulerName(s));
        auto r = client.call("taskgraph_eval", std::move(params));
        if (!r.ok()) {
            std::cerr << "taskgraph_eval failed: "
                      << r.status().toString() << "\n";
            return 1;
        }
        auto makespan = wire::tryGetNumber(*r, "makespan_seconds");
        auto critpath = wire::tryGetNumber(*r, "critical_path_seconds");
        auto comm = wire::tryGetNumber(*r, "comm_seconds");
        auto comp = wire::tryGetNumber(*r, "total_task_seconds");
        auto edges = wire::tryGetNumber(*r, "edges_costed");
        if (!makespan.ok() || !critpath.ok() || !comm.ok() ||
            !comp.ok() || !edges.ok()) {
            std::cerr << "taskgraph_eval reply is missing fields\n";
            return 1;
        }
        const bool same =
            doubleBits(*makespan) == doubleBits(local.makespanSeconds) &&
            doubleBits(*critpath) ==
                doubleBits(criticalPathSeconds(sdag, scost)) &&
            doubleBits(*comm) == doubleBits(local.totalCommSeconds) &&
            doubleBits(*comp) == doubleBits(local.totalCompSeconds) &&
            static_cast<std::size_t>(*edges) == local.edgesCosted;
        check(same, dagSchedulerName(s) +
                        " schedule through the server is bit-identical "
                        "to the local schedule");
        serverIdentical = serverIdentical && same;
    }
    (*server)->stop();

    // --- throughput (warn-only): schedules/sec on a mid-size DAG.
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
        for (DagScheduler s : allDagSchedulers())
            scheduleDag(dag, DagCostModel::build(dag, bench::evaluator(),
                                                 node, net),
                        s, cluster.nodes);
    }
    const double schedSec = secondsSince(t0);
    const int calls = reps * static_cast<int>(allDagSchedulers().size());
    const double schedulesPerSec = calls / schedSec;
    const double tasksPerSec =
        schedulesPerSec * static_cast<double>(dag.size());

    std::cout << "\nthroughput (" << dag.label() << "):"
              << "\n  schedules/sec:  " << schedulesPerSec
              << "\n  tasks/sec:      " << tasksPerSec
              << "\n  sweep cells/sec: "
              << static_cast<double>(parallel.size()) / sweepSec << "\n";
    if (schedulesPerSec < 50.0)
        std::cerr << "  warn: scheduling throughput below 50/sec "
                     "(slow machine?) — not a gate failure\n";

    std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    if (!jsonPath.empty()) {
        bench::JsonReport report("taskgraph");
        report.metric("reps", reps);
        report.metric("dag_tasks", static_cast<double>(dag.size()));
        report.metric("dag_edges", static_cast<double>(dag.numEdges()));
        report.metric("schedules_per_sec", schedulesPerSec);
        report.metric("tasks_per_sec", tasksPerSec);
        report.metric("sweep_cells", static_cast<double>(parallel.size()));
        report.metric("sweep_cells_per_sec",
                      static_cast<double>(parallel.size()) / sweepSec);
        report.metric("zero_comm_critical_path_s", cp);
        report.metric("serial_parallel_identical", identical ? 1.0 : 0.0);
        report.metric("server_identical", serverIdentical ? 1.0 : 0.0);
        report.context("dag", dag.label());
        report.context("endpoint", opts.endpoint.toString());
        if (!report.writeTo(jsonPath))
            return 1;
    }

    if (failures) {
        std::cerr << "\n" << failures << " check(s) FAILED\n";
        return 1;
    }
    std::cout << "\nall checks passed\n";
    return 0;
}
