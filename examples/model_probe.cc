/**
 * @file
 * Model probe: full performance + power breakdown of one (config, app)
 * pair — the raw numbers behind every figure. Useful both as an API
 * example and for calibration work.
 *
 * Usage: model_probe APP CUS FREQ_GHZ BW_TBS [--opt]
 */

#include <climits>
#include <iostream>
#include <optional>
#include <string>

#include "core/ena.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

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
    if (argc < 5) {
        std::cerr << "usage: model_probe APP CUS FREQ BW [--opt]\n";
        return 1;
    }
    App app = appFromName(argv[1]);
    NodeConfig cfg;
    cfg.cus = intArg("CUS", argv[2]);
    cfg.freqGhz = numberArg("FREQ", argv[3]);
    cfg.bwTbs = numberArg("BW", argv[4]);
    if (argc > 5 && std::string(argv[5]) == "--opt")
        cfg.opts = PowerOptConfig::all();
    cfg.validate();

    NodeEvaluator eval;
    EvalResult r = eval.evaluate(cfg, app);
    const PerfResult &p = r.perf;
    const PowerBreakdown &w = r.power;

    std::cout << appName(app) << " @ " << cfg.label() << "\n\n";
    std::cout << "perf:\n"
              << "  peak          " << p.peakFlops / 1e12 << " TF\n"
              << "  compute rate  " << p.computeRate / 1e12 << " TF\n"
              << "  memory rate   " << p.memoryRate / 1e12 << " TF\n"
              << "  achieved      " << p.flops / 1e12 << " TF ("
              << (p.memoryBound ? "memory" : "compute") << "-bound)\n"
              << "  ops/byte      " << p.opsPerByte << "\n"
              << "  traffic       " << p.trafficGbs << " GB/s\n"
              << "  cu util       " << p.activity.cuUtilization << "\n";
    std::cout << "power (W):\n"
              << "  cuDyn         " << w.cuDyn << "\n"
              << "  cuStatic      " << w.cuStatic << "\n"
              << "  nocDyn        " << w.nocDyn << "\n"
              << "  nocStatic     " << w.nocStatic << "\n"
              << "  hbmDyn        " << w.hbmDyn << "\n"
              << "  hbmStatic     " << w.hbmStatic << "\n"
              << "  cpu           " << w.cpu << "\n"
              << "  sys           " << w.sys << "\n"
              << "  extMemDyn     " << w.extMemDyn << "\n"
              << "  extMemStatic  " << w.extMemStatic << "\n"
              << "  serdesDyn     " << w.serdesDyn << "\n"
              << "  serdesStatic  " << w.serdesStatic << "\n"
              << "  package       " << w.packagePower() << "\n"
              << "  budget scope  " << w.budgetPower() << "\n"
              << "  total         " << w.total() << "\n";
    return 0;
}
