/**
 * @file
 * Config-file-driven evaluation: load a node description from a
 * "key = value" file and evaluate it — the way a co-design study would
 * script parameter exploration without recompiling.
 *
 * Usage: custom_node [CONFIG_FILE]
 *
 * With no argument, a built-in sample config (a hypothetical
 * NVM-augmented, NTC-enabled node) is used and printed.
 */

#include <iostream>

#include "common/node_config_io.hh"
#include "core/ena.hh"
#include "util/table.hh"

using namespace ena;

namespace {

const char *sampleConfig = R"(
# A hypothetical denser node: more CUs at a lower clock, hybrid
# external memory, NTC + compression enabled.
ehp.cus = 384
ehp.freq_ghz = 0.9
ehp.bw_tbs = 4
extmem.dram_gb = 384
extmem.nvm_gb = 384
opts.ntc = true
opts.compression = true
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

    NodeConfig node = unwrapOrFatal(
        tryNodeConfigFromConfig(cfg).withContext("loading node config"));
    NodeEvaluator eval;

    std::cout << "Evaluating " << node.label() << " ("
              << node.ext.dramGb << " GB ext DRAM + " << node.ext.nvmGb
              << " GB NVM)\n\n";

    TextTable t({"app", "perf (TF)", "budget W", "total W", "GF/W"});
    for (const EvalResult &r : eval.evaluateAll(node)) {
        t.row()
            .add(appName(r.app))
            .add(r.teraflops(), "%.2f")
            .add(r.power.budgetPower(), "%.1f")
            .add(r.power.total(), "%.1f")
            .add(r.perf.flops / 1e9 / r.power.total(), "%.1f");
    }
    t.print(std::cout);

    double budget = eval.maxBudgetPower(node);
    std::cout << "\nWorst-case budget power: "
              << strformat("%.1f", budget) << " W ("
              << (budget <= cal::nodePowerBudgetW ? "fits"
                                                  : "EXCEEDS")
              << " the " << cal::nodePowerBudgetW << " W budget)\n";
    return 0;
}
