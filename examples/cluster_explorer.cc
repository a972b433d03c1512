/**
 * @file
 * Scale-out machine explorer: load a combined node + cluster
 * description from one "key = value" file (or use the built-in
 * exascale sample), print the inter-node network's analytic
 * properties, the per-app communication efficiency under each
 * pattern, and weak/strong scaling curves.
 *
 * Usage: cluster_explorer [CONFIG_FILE] [APP]
 */

#include <iostream>

#include "cluster/cluster_config_io.hh"
#include "cluster/scale_out_study.hh"
#include "common/node_config_io.hh"
#include "core/ena.hh"
#include "util/table.hh"

using namespace ena;

namespace {

const char *sampleConfig = R"(
# The paper's 100,000-node machine on a tapered fat tree, with a
# denser-than-default NIC (6 x 25 GB/s SerDes links per node).
ehp.cus = 320
ehp.freq_ghz = 1.0
ehp.bw_tbs = 3.0
cluster.nodes = 100000
cluster.topology = fat-tree
cluster.links_per_node = 6
cluster.link_gbs = 25
cluster.fat_tree_taper = 2.0
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
    NodeEvaluator eval;
    ClusterEvaluator ce(eval, cluster);

    std::cout << "Inter-node network\n------------------\n"
              << ce.network().describe() << "\n";

    // Per-app communication efficiency under each pattern.
    TextTable t({"app", "halo eff", "allreduce eff", "all-to-all eff",
                 "halo EF", "analytic EF"});
    for (App a : allApps()) {
        t.row().add(appName(a));
        double halo_ef = 0.0, analytic_ef = 0.0;
        for (CommPattern p : allCommPatterns()) {
            CommSpec spec;
            spec.pattern = p;
            ClusterResult r = ce.evaluate(node, a, spec);
            t.add(r.commEfficiency, "%.3f");
            if (p == CommPattern::Halo) {
                halo_ef = r.systemExaflops;
                analytic_ef = r.analyticExaflops;
            }
        }
        t.add(halo_ef, "%.3f").add(analytic_ef, "%.3f");
    }
    t.print(std::cout);

    std::cout << "\nMean communication efficiency (all apps, halo): "
              << strformat("%.3f",
                           ce.meanCommEfficiency(node, CommSpec{}))
              << "\nGeomean comm-aware exaflops (all apps, halo): "
              << strformat("%.3f",
                           ce.geomeanSystemExaflops(node, CommSpec{}))
              << "\n\n";

    // Scaling curves for the chosen app.
    ScaleOutStudy study(eval, cluster);
    const std::vector<int> counts = {1,    64,    512,   4096,
                                     32768, cluster.nodes};
    CommSpec spec;
    auto weak = study.weakScaling(node, app, spec, counts);
    auto strong = study.strongScaling(node, app, spec, counts);

    TextTable s({"nodes", "weak eff", "weak EF", "strong eff",
                 "strong EF"});
    for (size_t i = 0; i < counts.size(); ++i) {
        s.row()
            .add(weak[i].nodes)
            .add(weak[i].efficiency, "%.3f")
            .add(weak[i].systemExaflops, "%.4f")
            .add(strong[i].efficiency, "%.3f")
            .add(strong[i].systemExaflops, "%.4f");
    }
    std::cout << appName(app) << " scaling on "
              << clusterTopologyName(cluster.topology) << ":\n";
    s.print(std::cout);

    std::cout << "\n(strong-scaling EF is the comm-derated projection "
                 "of the per-node rate;\nthe fixed problem itself does "
                 "not grow with the machine)\n";
    return 0;
}
