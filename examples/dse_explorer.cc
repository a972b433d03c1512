/**
 * @file
 * Design-space exploration walkthrough (paper Section V / Table II).
 *
 * Sweeps the paper's CU-count x frequency x bandwidth grid, reports the
 * best-mean configuration under the 160 W budget, each application's
 * standalone optimum, and the oracle reconfiguration benefit — then
 * repeats with the Section V-E power optimizations enabled.
 *
 * Usage: dse_explorer [--budget WATTS] [--verbose]
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "core/ena.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace ena;

int
main(int argc, char **argv)
{
    double budget = cal::nodePowerBudgetW;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--budget" && i + 1 < argc) {
            budget = std::stod(argv[++i]);
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            std::cerr << "usage: dse_explorer [--budget WATTS]"
                         " [--verbose]\n";
            return 1;
        }
    }

    NodeEvaluator eval;
    DseGrid grid = DseGrid::paperGrid();
    DesignSpaceExplorer dse(eval, grid, budget);

    if (verbose) {
        // Rank the feasible grid by geomean performance.
        auto points = dse.sweep(PowerOptConfig::none());
        std::sort(points.begin(), points.end(),
                  [](const DsePoint &a, const DsePoint &b) {
                      return a.geomeanFlops > b.geomeanFlops;
                  });
        TextTable top({"rank", "config", "geomean TF", "max budget W",
                       "feasible"});
        int rank = 0;
        int shown = 0;
        for (const DsePoint &p : points) {
            ++rank;
            bool is_paper = p.cfg.cus == 320 && p.cfg.freqGhz == 1.0 &&
                            p.cfg.bwTbs == 3.0;
            if ((p.feasible && shown < 12) || is_paper) {
                top.row()
                    .add(rank)
                    .add(p.cfg.label() + (is_paper ? " <= paper" : ""))
                    .add(p.geomeanFlops / 1e12, "%.3f")
                    .add(p.maxBudgetPowerW, "%.1f")
                    .add(p.feasible ? "yes" : "no");
                if (p.feasible)
                    ++shown;
            }
        }
        std::cout << "Top feasible configurations by geomean "
                     "performance:\n";
        top.print(std::cout);
        std::cout << "\n";
    }

    // Progress to stderr: stdout stays the same at every thread count.
    std::cerr << "Sweeping " << grid.size() << " configurations x "
              << allApps().size() << " applications under a " << budget
              << " W budget on " << ThreadPool::global().threads()
              << " thread(s) (set ENA_THREADS to override)...\n\n";

    NodeConfig best = dse.findBestMean(PowerOptConfig::none());
    std::cout << "Best-mean configuration: " << best.label()
              << "  (max budget power "
              << eval.maxBudgetPower(best) << " W)\n";

    NodeConfig best_opt = dse.findBestMean(PowerOptConfig::all());
    best_opt.opts = PowerOptConfig::all();
    std::cout << "Best-mean with power optimizations: "
              << best_opt.label() << "  (max budget power "
              << eval.maxBudgetPower(best_opt) << " W)\n\n";

    if (verbose) {
        TextTable per_app({"app", "perf (TF)", "budget W", "total W",
                           "bound"});
        for (const EvalResult &r : eval.evaluateAll(best)) {
            per_app.row()
                .add(appName(r.app))
                .add(r.teraflops(), "%.2f")
                .add(r.power.budgetPower(), "%.1f")
                .add(r.power.total(), "%.1f")
                .add(r.perf.memoryBound ? "memory" : "compute");
        }
        std::cout << "At the best-mean configuration:\n";
        per_app.print(std::cout);
        std::cout << "\n";
    }

    TextTable table({"Application", "Best App-Specific Config",
                     "Benefit w/o Power Opt (%)",
                     "Benefit w/ Power Opt (%)"});
    for (const TableIIRow &row : dse.tableII(best)) {
        table.row()
            .add(appName(row.app))
            .add(row.bestConfig.label())
            .add(row.benefitNoOptPct, "%.1f")
            .add(row.benefitWithOptPct, "%.1f");
    }
    std::cout << "Table II (oracle per-application reconfiguration):\n";
    table.print(std::cout);
    return 0;
}
