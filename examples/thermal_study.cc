/**
 * @file
 * Thermal walkthrough (paper Section V-D): solve the EHP package stack
 * for each application, check the 85 C DRAM limit, and render the
 * bottom-DRAM-die heat map for a chosen application and configuration.
 *
 * Usage: thermal_study [APP [CUS FREQ_GHZ BW_TBS]]
 */

#include <climits>
#include <iostream>
#include <optional>
#include <string>

#include "core/ena.hh"
#include "core/thermal_study.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

using namespace ena;

namespace {

/** @p arg, argument @p what, as a number; fatal unless all of it parses. */
double
numberArg(const char *what, const std::string &arg)
{
    const std::optional<double> v = parseDouble(arg);
    if (!v)
        ENA_FATAL(what, " '", arg, "' is not a number");
    return *v;
}

/** @p arg, argument @p what, as an int; fatal unless all of it parses. */
int
intArg(const char *what, const std::string &arg)
{
    const std::optional<long long> v = parseInt(arg);
    if (!v || *v < INT_MIN || *v > INT_MAX)
        ENA_FATAL(what, " '", arg, "' is not an int");
    return static_cast<int>(*v);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    App pick = App::SNAP;
    if (argc > 1)
        pick = appFromName(argv[1]);

    NodeConfig cfg = NodeConfig::bestMean();
    if (argc > 4) {
        cfg.cus = intArg("CUS", argv[2]);
        cfg.freqGhz = numberArg("FREQ_GHZ", argv[3]);
        cfg.bwTbs = numberArg("BW_TBS", argv[4]);
        cfg.validate();
    }

    NodeEvaluator eval;
    ThermalStudy thermal(eval);

    TextTable t({"app", "peak DRAM (C)", "limit (C)", "headroom (C)"});
    for (App app : allApps()) {
        double peak = thermal.peakDramC(cfg, app);
        t.row()
            .add(appName(app))
            .add(peak, "%.1f")
            .add(EhpPackageModel::dramLimitC, "%.0f")
            .add(EhpPackageModel::dramLimitC - peak, "%.1f");
    }
    std::cout << "Peak in-package DRAM temperature at " << cfg.label()
              << ":\n";
    t.print(std::cout);

    std::cout << "\nBottom DRAM die heat map for " << appName(pick)
              << " (hot spots are the CU tiles of the GPU die below):\n";
    std::cout << thermal.heatMap(cfg, pick);
    return 0;
}
