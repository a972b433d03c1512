/**
 * @file
 * Fault-aware scale-out gates and tables:
 *
 *  1. Zero-resiliency reduction: ResilientClusterEvaluator with
 *     ResilienceSpec::none() must reproduce ClusterEvaluator::evaluate
 *     system exaflops and megawatts bit-identically for every app and
 *     comm spec tried — exit code 1 on any mismatch.
 *  2. Determinism: the protection x topology x node-count sweep
 *     sharded over the process pool must be element-for-element
 *     identical to its single-threaded run — exit code 1 on mismatch.
 *  3. Tables: effective (comm + checkpoint + RMT) exaflops across the
 *     protection ladder and machine sizes, the fabric-drained vs
 *     fixed-I/O checkpoint comparison, and the availability-
 *     constrained best-config search.
 *
 * Usage: bench_ras_scaleout [THREADS]   (default: ENA_THREADS / all)
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "cluster/resilient_cluster.hh"
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
identical(const std::vector<ResilientSweepPoint> &a,
          const std::vector<ResilientSweepPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].variant != b[i].variant ||
            a[i].topology != b[i].topology || a[i].nodes != b[i].nodes ||
            a[i].systemMttfHours != b[i].systemMttfHours ||
            a[i].interruptionMttfHours != b[i].interruptionMttfHours ||
            a[i].commEfficiency != b[i].commEfficiency ||
            a[i].ckptEfficiency != b[i].ckptEfficiency ||
            a[i].rmtSlowdown != b[i].rmtSlowdown ||
            a[i].systemExaflops != b[i].systemExaflops ||
            a[i].effectiveExaflops != b[i].effectiveExaflops ||
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

    bench::banner("Fault-aware scale-out",
                  "RAS-aware cluster projection: zero-resiliency "
                  "bit-identity vs ClusterEvaluator,\nserial/parallel "
                  "protection-sweep equivalence, effective-exaflops "
                  "tables, and the\navailability-constrained best "
                  "machine.");

    const NodeEvaluator &eval = bench::evaluator();
    const ClusterConfig cluster = ClusterConfig::exascale();
    const NodeConfig best = bench::bestMean();
    ClusterEvaluator ce(eval, cluster);

    // ---- gate 1: zero-fault / zero-RMT reduces to ClusterEvaluator ----
    ResilientClusterEvaluator ideal(ce, ResilienceSpec::none());
    std::vector<CommSpec> specs;
    specs.push_back(CommSpec::none());
    specs.push_back(CommSpec{});   // halo at profile intensity
    CommSpec a2a;
    a2a.pattern = CommPattern::AllToAll;
    specs.push_back(a2a);
    for (App app : allApps()) {
        for (const CommSpec &spec : specs) {
            ClusterResult base = ce.evaluate(best, app, spec);
            ResilientResult r = ideal.evaluate(best, app, spec);
            if (r.effectiveExaflops != base.systemExaflops ||
                r.systemMw != base.systemMw) {
                std::cerr << "FAIL: zero-resiliency projection differs "
                             "from ClusterEvaluator on "
                          << appName(app) << " / "
                          << commPatternName(spec.pattern) << "\n";
                return 1;
            }
        }
    }
    std::cout << "zero-resiliency gate: ResilienceSpec::none() "
                 "reproduces ClusterEvaluator\nbit-identically over "
              << allApps().size() << " apps x " << specs.size()
              << " comm specs\n\n";

    // ---- gate 2 + timing: sharded protection sweep vs serial run ----
    ResilientScaleOutStudy study(eval, cluster);
    const std::vector<ProtectionVariant> &variants =
        standardProtectionVariants();
    const std::vector<ClusterTopology> topos = allClusterTopologies();
    const std::vector<int> sizes = {1000, 8000, 27000, 100000};

    ThreadPool::setGlobalThreads(1);
    auto t0 = std::chrono::steady_clock::now();
    auto serial = study.sweep(best, App::CoMD, CommSpec{}, variants,
                              topos, sizes);
    double serial_sec = secondsSince(t0);

    ThreadPool::setGlobalThreads(threads);
    t0 = std::chrono::steady_clock::now();
    auto parallel = study.sweep(best, App::CoMD, CommSpec{}, variants,
                                topos, sizes);
    double parallel_sec = secondsSince(t0);

    if (!identical(serial, parallel)) {
        std::cerr << "\nFAIL: sharded protection sweep differs from its "
                     "serial run\n";
        return 1;
    }
    std::cout << "determinism: protection/topology/node-count sweep is "
                 "element-for-element\nidentical serial vs "
              << threads << " thread(s) ("
              << strformat("%.2f", serial_sec * 1e3) << " ms serial, "
              << strformat("%.2f", parallel_sec * 1e3)
              << " ms parallel)\n\n";

    // ---- effective exaflops across the protection ladder ----
    TextTable t({"protection", "fabric", "nodes", "sys MTTF (h)",
                 "interrupt MTTF (h)", "ckpt eff", "RMT slow",
                 "EF (CoMD)", "effective EF"});
    for (const ResilientSweepPoint &p : parallel) {
        if (p.topology != ClusterTopology::FatTree)
            continue;   // the fabric axis is gated above; keep it short
        t.row()
            .add(variants[p.variant].name)
            .add(clusterTopologyName(p.topology))
            .add(p.nodes)
            .add(p.systemMttfHours, "%.2f")
            .add(p.interruptionMttfHours, "%.1f")
            .add(p.ckptEfficiency, "%.3f")
            .add(p.rmtSlowdown, "%.3f")
            .add(p.systemExaflops, "%.3f")
            .add(p.effectiveExaflops, "%.3f");
    }
    bench::show(t, "ras_scaleout_protection");

    // ---- checkpoint drain: fixed I/O knob vs riding the fabric ----
    std::cout << "\nCheckpoint drain source (ECC + GPU RMT, 100,000 "
                 "nodes):\n";
    ResilienceSpec fixed = ResilienceSpec::paper();
    ResilienceSpec fabric = ResilienceSpec::paper();
    fabric.checkpointViaFabric = true;
    TextTable d({"drain", "GB/s/node", "ckpt cost (s)",
                 "interval (min)", "ckpts/day", "machine eff"});
    for (const auto &[name, spec] :
         {std::pair<const char *, ResilienceSpec>{"fixed I/O", fixed},
          {"via fabric", fabric}}) {
        ResilientClusterEvaluator rce(ce, spec);
        ResilientResult r = rce.evaluate(best, App::CoMD, CommSpec{});
        d.row()
            .add(name)
            .add(r.drainBps / 1e9, "%.1f")
            .add(r.plan.checkpointCostS, "%.1f")
            .add(r.plan.intervalS / 60.0, "%.1f")
            .add(r.plan.checkpointsPerDay, "%.1f")
            .add(r.ckptEfficiency, "%.3f");
    }
    bench::show(d, "ras_scaleout_drain");

    // ---- availability-constrained best machine ----
    std::cout << "\nBest machine under the paper's constraints "
                 "(interruption MTTF >= 1 week,\nworst-app node power "
                 "<= 160 W):\n";
    std::vector<NodeConfig> candidates;
    for (int cus : {256, 320, 384}) {
        NodeConfig c = best;
        c.cus = cus;
        candidates.push_back(c);
    }
    const std::vector<int> machine_sizes = {1000, 8000, 27000, 64000,
                                            100000};
    auto won = study.bestUnderAvailability(candidates, variants,
                                           machine_sizes, App::CoMD,
                                           CommSpec{});
    if (!won.feasible) {
        std::cout << "  no candidate satisfied both constraints\n";
    } else {
        TextTable w({"node config", "protection", "nodes",
                     "node W (worst app)", "interrupt MTTF (h)",
                     "effective EF", "EF/MW"});
        w.row()
            .add(won.config.label())
            .add(variants[won.variant].name)
            .add(won.nodes)
            .add(won.maxBudgetPowerW, "%.1f")
            .add(won.result.interruptionMttfHours, "%.1f")
            .add(won.result.effectiveExaflops, "%.3f")
            .add(won.result.effectiveExaflopsPerMw(), "%.4f")
            ;
        bench::show(w, "ras_scaleout_best");
    }

    std::cout << "\nReading: silent (user-visible) faults — dominated "
                 "by unprotected CPU logic —\ncap the machine size the "
                 "one-week interruption target allows; checkpointing\n"
                 "recovers detected faults but its efficiency collapses "
                 "without ECC.\n";
    return 0;
}
