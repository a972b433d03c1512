/**
 * @file
 * Scale-out cluster model gates and tables:
 *
 *  1. Zero-communication reduction: ClusterEvaluator with
 *     CommSpec::none() must reproduce ExascaleProjector::sweepCus
 *     (Fig. 14) bit-identically — exit code 1 on any mismatch.
 *  2. Determinism: the topology x node-count sweep sharded over the
 *     process pool must be element-for-element identical to its
 *     single-threaded run (like bench_parallel_sweep) — exit code 1 on
 *     mismatch.
 *  3. Tables: analytic vs communication-aware Fig. 14, and the fabric
 *     comparison across topologies and machine sizes.
 *
 * Usage: bench_cluster_scaleout [THREADS]   (default: ENA_THREADS / all)
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "cluster/scale_out_study.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

bool
identical(const std::vector<TopologyPoint> &a,
          const std::vector<TopologyPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].topology != b[i].topology || a[i].nodes != b[i].nodes ||
            a[i].avgHops != b[i].avgHops ||
            a[i].bisectionGbs != b[i].bisectionGbs ||
            a[i].efficiency != b[i].efficiency ||
            a[i].systemExaflops != b[i].systemExaflops ||
            a[i].systemMw != b[i].systemMw)
            return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int threads = argc > 1 ? std::atoi(argv[1])
                           : ThreadPool::defaultThreads();
    if (threads < 1)
        threads = 1;

    bench::banner("Scale-out cluster model",
                  "Inter-node network + communication-aware exascale "
                  "projection: zero-comm\nbit-identity vs Fig. 14, "
                  "serial/parallel sweep equivalence, and the fabric\n"
                  "comparison tables.");

    const NodeEvaluator &eval = bench::evaluator();
    const ClusterConfig cluster = ClusterConfig::exascale();
    const std::vector<int> cus = {192, 224, 256, 288, 320};

    // ---- gate 1: zero communication reduces to Fig. 14 exactly ----
    ExascaleProjector proj(eval, cluster.nodes);
    auto fig14 = proj.sweepCus(cus);
    ScaleOutStudy study(eval, cluster);
    auto zero = study.fig14(cus, CommSpec::none());
    for (size_t i = 0; i < cus.size(); ++i) {
        if (zero[i].cus != fig14[i].cus ||
            zero[i].commExaflops != fig14[i].systemExaflops ||
            zero[i].commMw != fig14[i].systemMw) {
            std::cerr << "FAIL: zero-communication projection differs "
                         "from ExascaleProjector at "
                      << fig14[i].cus << " CUs\n";
            return 1;
        }
    }
    std::cout << "zero-comm gate: CommSpec::none() reproduces Fig. 14 "
                 "bit-identically over "
              << cus.size() << " CU points\n\n";

    // ---- communication-aware Fig. 14 ----
    CommSpec halo;   // defaults: halo exchange at profile intensity
    auto aware = study.fig14(cus, halo);
    TextTable t({"CUs per node", "analytic EF", "comm-aware EF",
                 "efficiency", "analytic MW", "comm-aware MW"});
    for (const ClusterFig14Point &p : aware) {
        t.row()
            .add(p.cus)
            .add(p.analyticExaflops, "%.2f")
            .add(p.commExaflops, "%.2f")
            .add(p.efficiency, "%.3f")
            .add(p.analyticMw, "%.1f")
            .add(p.commMw, "%.1f");
    }
    bench::show(t, "cluster_fig14");

    // ---- gate 2 + timing: sharded sweep vs serial run ----
    // All-to-all stresses the bisection, which is what separates the
    // three fabrics (halo is injection-limited on all of them).
    CommSpec a2a;
    a2a.pattern = CommPattern::AllToAll;
    const std::vector<ClusterTopology> topos = allClusterTopologies();
    const std::vector<int> sizes = {1000, 8000, 27000, 64000, 100000};
    const NodeConfig best = bench::bestMean();

    ThreadPool::setGlobalThreads(1);
    auto t0 = std::chrono::steady_clock::now();
    auto serial = study.topologySweep(best, App::CoMD, a2a, topos,
                                      sizes);
    double serial_sec = secondsSince(t0);

    ThreadPool::setGlobalThreads(threads);
    t0 = std::chrono::steady_clock::now();
    auto parallel = study.topologySweep(best, App::CoMD, a2a, topos,
                                        sizes);
    double parallel_sec = secondsSince(t0);

    if (!identical(serial, parallel)) {
        std::cerr << "\nFAIL: sharded topology sweep differs from its "
                     "serial run\n";
        return 1;
    }
    std::cout << "\ndeterminism: topology/node-count sweep is "
                 "element-for-element identical\nserial vs "
              << threads << " thread(s) ("
              << strformat("%.2f", serial_sec * 1e3) << " ms serial, "
              << strformat("%.2f", parallel_sec * 1e3)
              << " ms parallel)\n\n";

    TextTable f({"fabric", "nodes", "avg hops", "bisection TB/s",
                 "efficiency", "EF (CoMD)", "MW"});
    for (const TopologyPoint &p : parallel) {
        f.row()
            .add(clusterTopologyName(p.topology))
            .add(p.nodes)
            .add(p.avgHops, "%.2f")
            .add(p.bisectionGbs / 1000.0, "%.1f")
            .add(p.efficiency, "%.3f")
            .add(p.systemExaflops, "%.3f")
            .add(p.systemMw, "%.1f");
    }
    bench::show(f, "cluster_fabrics");

    std::cout << "\nReading: the fat tree holds full bisection so "
                 "efficiency stays flat with\nmachine size; the torus "
                 "is cheapest in switches/links but its bisection\n"
                 "limits all-to-all traffic; the dragonfly sits "
                 "between.\n";
    return 0;
}
