/**
 * @file
 * Fault-aware scale-out explorer: load a node + cluster + resiliency
 * description from one "key = value" file (or use the built-in
 * sample), then walk the RAS-aware projection — FIT and MTTF at
 * machine scale, the checkpoint plan (fixed I/O vs riding the fabric),
 * the protection ladder's effective exaflops, and the biggest machine
 * that clears the paper's one-week interruption target.
 *
 * Usage: resilient_cluster_explorer [CONFIG_FILE] [APP]
 */

#include <iostream>

#include "cluster/cluster_config_io.hh"
#include "cluster/resilient_cluster.hh"
#include "cluster/resilient_cluster_io.hh"
#include "common/node_config_io.hh"
#include "core/ena.hh"
#include "util/table.hh"

using namespace ena;

namespace {

const char *sampleConfig = R"(
# The paper's 100,000-node machine with its Section II-A5 protection:
# ECC everywhere, opportunistic GPU RMT, checkpoints riding the fabric
# to the I/O nodes.
ehp.cus = 320
ehp.freq_ghz = 1.0
ehp.bw_tbs = 3.0
cluster.nodes = 100000
cluster.topology = fat-tree
cluster.ras.dram_ecc = true
cluster.ras.sram_ecc = true
cluster.ras.gpu_rmt = true
cluster.ras.rmt_policy = opportunistic
cluster.ras.checkpoint_via_fabric = true
)";

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
    App app = argc > 2 ? appFromName(argv[2]) : App::CoMD;

    NodeConfig node = unwrapOrFatal(
        tryNodeConfigFromConfig(cfg).withContext("loading node config"));
    ClusterConfig cluster = unwrapOrFatal(tryClusterConfigFromConfig(cfg)
        .withContext("loading cluster config"));
    ResilienceSpec spec = unwrapOrFatal(tryResilienceSpecFromConfig(cfg)
        .withContext("loading resilience spec"));
    NodeEvaluator eval;
    ClusterEvaluator ce(eval, cluster);
    ResilientClusterEvaluator rce(ce, spec);
    ResilientResult r = rce.evaluate(node, app, CommSpec{});

    std::cout << "Machine\n-------\n" << ce.network().describe() << "\n";

    std::cout << "Fault budget at " << node.label() << " ("
              << appName(app) << ", halo exchange)\n"
              << "---------------------------------------------------\n"
              << "  protected node FIT:        "
              << strformat("%.0f", r.nodeFit) << "\n"
              << "  system MTTF:               "
              << strformat("%.2f", r.systemMttfHours) << " h\n"
              << "  user-visible interruption: "
              << strformat("%.1f", r.interruptionMttfHours) << " h ("
              << strformat("%.2f", r.interruptionMttfHours / 24.0)
              << " days; paper target: a week or more)\n\n";

    std::cout << "Checkpoint plan ("
              << (spec.checkpointViaFabric ? "drained via the fabric"
                                           : "fixed I/O bandwidth")
              << ")\n--------------------------------------------\n"
              << "  drain bandwidth: "
              << strformat("%.1f", r.drainBps / 1e9) << " GB/s/node\n"
              << "  checkpoint cost: "
              << strformat("%.1f", r.plan.checkpointCostS) << " s, "
              << "interval " << strformat("%.1f", r.plan.intervalS / 60.0)
              << " min (" << strformat("%.1f", r.plan.checkpointsPerDay)
              << " ckpts/day)\n"
              << "  machine efficiency: "
              << strformat("%.3f", r.ckptEfficiency)
              << (r.plan.mttfLimited
                      ? "  [degenerate: Young interval clamped to MTTF]"
                      : "")
              << "\n\n";

    std::cout << "Projection: analytic "
              << strformat("%.3f", r.cluster.analyticExaflops)
              << " EF -> comm-aware "
              << strformat("%.3f", r.cluster.systemExaflops)
              << " EF -> effective "
              << strformat("%.3f", r.effectiveExaflops) << " EF at "
              << strformat("%.1f", r.systemMw) << " MW ("
              << strformat("%.4f", r.effectiveExaflopsPerMw())
              << " EF/MW)\n\n";

    // The protection ladder on this machine.
    const std::vector<ProtectionVariant> &variants =
        standardProtectionVariants();
    TextTable t({"protection", "sys MTTF (h)", "interrupt MTTF (h)",
                 "ckpt eff", "RMT slow", "effective EF"});
    for (const ProtectionVariant &v : variants) {
        ResilientClusterEvaluator rv(ce, v.spec);
        ResilientResult rr = rv.evaluate(node, app, CommSpec{});
        t.row()
            .add(v.name)
            .add(rr.systemMttfHours, "%.2f")
            .add(rr.interruptionMttfHours, "%.1f")
            .add(rr.ckptEfficiency, "%.3f")
            .add(rr.rmtSlowdown, "%.3f")
            .add(rr.effectiveExaflops, "%.3f");
    }
    t.print(std::cout);

    // Biggest machine that clears the availability bar.
    ResilientScaleOutStudy study(eval, cluster);
    auto won = study.bestUnderAvailability(
        {node}, variants, {1000, 8000, 27000, 64000, 100000}, app,
        CommSpec{});
    std::cout << "\nAvailability-constrained best machine "
                 "(interruption >= 1 week, node <= 160 W):\n";
    if (!won.feasible) {
        std::cout << "  none feasible with these candidates\n";
    } else {
        std::cout << "  " << won.config.label() << " x " << won.nodes
                  << " nodes, " << variants[won.variant].name << ": "
                  << strformat("%.3f", won.result.effectiveExaflops)
                  << " effective EF at "
                  << strformat("%.1f",
                               won.result.interruptionMttfHours)
                  << " h between interruptions\n";
    }

    std::cout << "\n(The paper's 100,000-node target needs CPU-side "
                 "protection too: unprotected\nCPU logic dominates the "
                 "silent-fault rate that forces user intervention.)\n";
    return 0;
}
