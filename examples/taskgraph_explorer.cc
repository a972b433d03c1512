/**
 * @file
 * Cluster-level task-graph explorer: load a combined node + cluster +
 * taskgraph description from one "key = value" file (or use the
 * built-in sample), print the DAG's shape, compare the schedulers
 * across topologies and machine sizes, show what protection/faults do
 * to the makespan, and run the job-mix interference study.
 *
 * Usage: taskgraph_explorer [CONFIG_FILE] [CSV_FILE]
 *
 * CSV_FILE, when given, receives the full scheduler x topology x
 * node-count sweep, one row per cell (the CI smoke job does this).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "cluster/cluster_config_io.hh"
#include "common/node_config_io.hh"
#include "taskgraph/resilient_schedule.hh"
#include "taskgraph/task_dag_io.hh"
#include "taskgraph/taskgraph_study.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

using namespace ena;

namespace {

const char *sampleConfig = R"(
# A SNAP-like 24x24 wavefront sweep of 64-Gflop kernels exchanging
# 16 MB surfaces, on a slice of the paper's fat-tree machine.
ehp.cus = 320
ehp.freq_ghz = 1.0
ehp.bw_tbs = 3.0
cluster.nodes = 512
cluster.topology = fat-tree
cluster.links_per_node = 4
cluster.link_gbs = 25
taskgraph.shape = wavefront
taskgraph.app = SNAP
taskgraph.size = 24
taskgraph.task_gflops = 64
taskgraph.edge_mb = 16
)";

void
writeCsv(const std::string &path,
         const std::vector<DagScheduler> &schedulers,
         const std::vector<TaskGraphSweepPoint> &points)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "taskgraph_explorer: cannot write '" << path
                  << "'\n";
        std::exit(2);
    }
    os << "scheduler,topology,nodes,makespan_s,critical_path_s,"
          "speedup,efficiency,utilization,comm_s,edges_costed,ok\n";
    for (const TaskGraphSweepPoint &p : points) {
        os << dagSchedulerName(schedulers[p.scheduler]) << ','
           << clusterTopologyName(p.topology) << ',' << p.nodes << ','
           << strformat("%.17g,%.17g,%.4f,%.4f,%.4f,%.17g,%zu,%d",
                        p.makespanSeconds, p.criticalPathSeconds,
                        p.speedup, p.efficiency, p.utilization,
                        p.commSeconds, p.edgesCosted, p.ok ? 1 : 0)
           << '\n';
    }
    std::cout << "\nWrote " << points.size() << " sweep rows to "
              << path << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Config cfg;
    if (argc > 1) {
        cfg = unwrapOrFatal(Config::tryFromFile(argv[1]));
    } else {
        cfg = unwrapOrFatal(Config::tryFromString(sampleConfig));
        std::cout << "No config given; using the built-in sample:\n\n"
                  << cfg.toString() << "\n";
    }

    NodeConfig node = unwrapOrFatal(
        tryNodeConfigFromConfig(cfg).withContext("loading node config"));
    ClusterConfig cluster = unwrapOrFatal(tryClusterConfigFromConfig(cfg)
        .withContext("loading cluster config"));
    TaskGraphSpec spec = unwrapOrFatal(tryTaskGraphSpecFromConfig(cfg)
        .withContext("loading taskgraph config"));
    TaskDag dag = spec.build();
    checkOrFatal(dag.tryValidate());

    std::cout << "Task graph: " << dag.label() << "\n"
              << "  depth " << dag.depth() << ", max layer width "
              << dag.maxLayerWidth() << ", total "
              << strformat("%.1f Tflop, %.1f GB on edges",
                           dag.totalFlops() / 1e12,
                           dag.totalEdgeBytes() / 1e9)
              << "\n\n";

    NodeEvaluator eval;
    TaskGraphStudy study(eval, cluster);

    const std::vector<ClusterTopology> topologies = {
        ClusterTopology::FatTree, ClusterTopology::Dragonfly,
        ClusterTopology::Torus3D};
    std::vector<int> counts;
    for (int n = 8; n <= cluster.nodes; n *= 4)
        counts.push_back(n);
    if (counts.empty() || counts.back() != cluster.nodes)
        counts.push_back(cluster.nodes);

    auto points = study.sweep(dag, node, allDagSchedulers(), topologies,
                              counts);

    std::cout << "Scheduler comparison ("
              << clusterTopologyName(cluster.topology) << ", "
              << cluster.nodes << " nodes):\n";
    TextTable t({"scheduler", "makespan (s)", "critical path (s)",
                 "speedup", "efficiency", "utilization", "comm (s)"});
    const std::size_t nt = topologies.size();
    const std::size_t nn = counts.size();
    for (std::size_t s = 0; s < allDagSchedulers().size(); ++s) {
        // The base topology at the largest machine size.
        const TaskGraphSweepPoint &p = points[s * nt * nn + nn - 1];
        t.row()
            .add(dagSchedulerName(allDagSchedulers()[s]))
            .add(p.makespanSeconds, "%.4f")
            .add(p.criticalPathSeconds, "%.4f")
            .add(p.speedup, "%.1f")
            .add(p.efficiency, "%.3f")
            .add(p.utilization, "%.3f")
            .add(p.commSeconds, "%.3f");
    }
    t.print(std::cout);

    std::cout << "\nTopology x machine size (critical-path scheduler, "
                 "makespan seconds):\n";
    TextTable x({"nodes", "fat-tree", "dragonfly", "3d-torus"});
    for (std::size_t c = 0; c < nn; ++c) {
        auto &row = x.row().add(counts[c]);
        for (std::size_t topo = 0; topo < nt; ++topo) {
            const TaskGraphSweepPoint &p = points[topo * nn + c];
            if (p.ok)
                row.add(p.makespanSeconds, "%.4f");
            else
                row.add("(quarantined)");
        }
    }
    x.print(std::cout);

    // What the RAS layer does to the schedule.
    std::cout << "\nResiliency (critical-path, " << cluster.nodes
              << " nodes, 8 spares):\n";
    InterNodeNetwork net(cluster);
    TextTable r({"protection", "makespan (s)", "effective (s)",
                 "E[failures]", "rmt slowdown", "degradation"});
    for (const ProtectionVariant &v : standardProtectionVariants()) {
        ResilientDagScheduler rds(eval, v.spec);
        ResilientSchedule rs =
            rds.evaluate(dag, node, net, DagScheduler::CriticalPath,
                         cluster.nodes, 8);
        r.row()
            .add(v.name)
            .add(rs.schedule.makespanSeconds, "%.4f")
            .add(rs.effectiveMakespanSeconds, "%.4f")
            .add(rs.expectedFailures, "%.3f")
            .add(rs.rmtSlowdown, "%.3f")
            .add(rs.degradation(), "%.4f");
    }
    r.print(std::cout);

    // Job-mix interference: four copies of the DAG sharing the machine.
    const int jobs = 4;
    std::vector<TaskDag> mix;
    for (int j = 0; j < jobs; ++j)
        mix.push_back(dag);
    JobMixResult jm = study.jobMix(mix, node, DagScheduler::CriticalPath,
                                   cluster.nodes);
    std::cout << "\nJob mix: " << jobs << " copies on "
              << cluster.nodes << " nodes (" << jm.nodesPerJob
              << " each): mean slowdown "
              << strformat("%.3fx", jm.meanSlowdown) << ", worst "
              << strformat("%.3fx", jm.worstSlowdown)
              << "\n(fabric bandwidth splits " << jobs
              << " ways; compute is partition-private)\n";

    if (argc > 2)
        writeCsv(argv[2], allDagSchedulers(), points);
    return 0;
}
