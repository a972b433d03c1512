/**
 * @file
 * Parameter-sweep CLI: evaluate one application along one hardware axis
 * and print a CSV series to stdout — the scripting workhorse for
 * co-design studies on top of the analytic models.
 *
 * Usage:
 *   sweep_tool [--server ENDPOINT] APP AXIS FROM TO STEP [CUS FREQ_GHZ BW_TBS]
 *
 *   AXIS is one of: cus | freq | bw
 *   The optional trailing triple fixes the other axes (defaults to the
 *   best-mean configuration 320 / 1.0 / 3.0).
 *
 * With --server the sweep is evaluated by a running ena-server (the
 * thin-client mode: all model work happens in the daemon) and the CSV
 * is byte-identical to the local run — the wire protocol round-trips
 * every double exactly and the formatting below happens client-side in
 * both modes.
 *
 * Example:
 *   sweep_tool lulesh bw 1 7 0.5
 *   sweep_tool --server unix:ena-server.sock lulesh bw 1 7 0.5
 */

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/ena.hh"
#include "server/client.hh"
#include "util/status.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

int
usage(const Status &why)
{
    std::cerr << "sweep_tool: " << why.toString()
              << "\nusage: sweep_tool [--server ENDPOINT] APP "
                 "cus|freq|bw FROM TO STEP [CUS FREQ BW]\n";
    return 2;
}

Expected<double>
tryNumber(const std::string &arg, const char *what)
{
    std::optional<double> v = parseDouble(arg);
    if (!v)
        return Status::invalidArgument(what, " '", arg,
                                       "' is not a number");
    return *v;
}

Expected<int>
tryCus(const std::string &arg)
{
    std::optional<long long> n = parseInt(arg);
    if (!n)
        return Status::invalidArgument("CU count '", arg,
                                       "' is not an integer");
    if (*n < 1 || *n > 4096)
        return Status::outOfRange("CU count must be in [1, 4096], got ",
                                  *n);
    return static_cast<int>(*n);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Strip --server ENDPOINT; the remaining positionals parse as ever.
    std::string server;
    std::vector<char *> args;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--server" && i + 1 < argc)
            server = argv[++i];
        else
            args.push_back(argv[i]);
    }

    if (args.size() < 5)
        return usage(Status::invalidArgument(
            "expected at least 5 positional arguments, got ",
            args.size()));

    App app = appFromName(args[0]);
    std::string axis = args[1];
    Expected<double> from = tryNumber(args[2], "FROM");
    if (!from.ok())
        return usage(from.status());
    Expected<double> to = tryNumber(args[3], "TO");
    if (!to.ok())
        return usage(to.status());
    Expected<double> step = tryNumber(args[4], "STEP");
    if (!step.ok())
        return usage(step.status());
    if (*step <= 0.0 || *to < *from)
        return usage(Status::outOfRange(
            "need STEP > 0 and TO >= FROM, got FROM=", *from,
            " TO=", *to, " STEP=", *step));
    if (axis != "cus" && axis != "freq" && axis != "bw")
        return usage(Status::invalidArgument("unknown axis '", axis,
                                             "'"));

    NodeConfig base = NodeConfig::bestMean();
    bool haveBase = args.size() > 7;
    if (haveBase) {
        Expected<int> cus = tryCus(args[5]);
        if (!cus.ok())
            return usage(cus.status());
        base.cus = *cus;
        Expected<double> freq = tryNumber(args[6], "FREQ");
        if (!freq.ok())
            return usage(freq.status());
        base.freqGhz = *freq;
        Expected<double> bw = tryNumber(args[7], "BW");
        if (!bw.ok())
            return usage(bw.status());
        base.bwTbs = *bw;
    }

    std::vector<std::string> rows;
    if (!server.empty()) {
        // Thin-client mode: the daemon evaluates; we only format.
        Expected<Endpoint> ep = tryParseEndpoint(server);
        if (!ep.ok()) {
            std::cerr << "sweep_tool: " << ep.status().toString() << "\n";
            return 1;
        }
        ClientOptions opts;
        opts.endpoint = *ep;
        ServerClient client(opts);
        Expected<std::vector<SweepPoint>> points = client.sweepAxis(
            args[0], axis, *from, *to, *step,
            haveBase ? &base : nullptr);
        if (!points.ok()) {
            std::cerr << "sweep_tool: " << points.status().toString()
                      << "\n";
            return 1;
        }
        rows.reserve(points->size());
        for (const SweepPoint &p : *points) {
            std::ostringstream os;
            os << appName(app) << "," << axis << "," << p.value << ","
               << p.cus << "," << p.freqGhz << "," << p.bwTbs << ","
               << p.opsPerByte << "," << p.teraflops() << ","
               << p.cuUtilization << "," << p.trafficGbs << ","
               << p.budgetW << "," << p.totalW << ","
               << p.gflopsPerW() << "," << (p.memoryBound ? 1 : 0)
               << "\n";
            rows.push_back(os.str());
        }
    } else {
        std::vector<double> values;
        for (double v = *from; v <= *to + 1e-9; v += *step)
            values.push_back(v);

        // Evaluate every point on the process-wide pool (ENA_THREADS)
        // and emit the CSV rows in sweep order afterwards.
        NodeEvaluator eval;
        rows = parallel_map(values.size(), [&](std::size_t i) {
            double v = values[i];
            NodeConfig cfg = base;
            if (axis == "cus")
                cfg.cus = static_cast<int>(v);
            else if (axis == "freq")
                cfg.freqGhz = v;
            else
                cfg.bwTbs = v;
            cfg.validate();
            EvalResult r = eval.evaluate(cfg, app);
            std::ostringstream os;
            os << appName(app) << "," << axis << "," << v << ","
               << cfg.cus << "," << cfg.freqGhz << "," << cfg.bwTbs
               << "," << r.perf.opsPerByte << "," << r.teraflops()
               << "," << r.perf.activity.cuUtilization << ","
               << r.perf.trafficGbs << ","
               << r.power.budgetPower() << "," << r.power.total()
               << "," << r.perf.flops / 1e9 / r.power.total() << ","
               << (r.perf.memoryBound ? 1 : 0) << "\n";
            return os.str();
        });
    }

    std::cout << "app,axis,value,cus,freq_ghz,bw_tbs,ops_per_byte,"
                 "teraflops,cu_utilization,traffic_gbs,budget_w,"
                 "total_w,gflops_per_w,memory_bound\n";
    for (const std::string &row : rows)
        std::cout << row;
    return 0;
}
