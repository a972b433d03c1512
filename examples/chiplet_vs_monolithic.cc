/**
 * @file
 * Cycle-level chiplet study walkthrough (paper Section V-A, Fig. 7).
 *
 * Runs the event-driven EHP model in chiplet and monolithic modes for
 * one application and prints the traffic split, cache behaviour, and
 * relative performance. An argument after APP that is not one of the
 * KEY=VALUE settings below is a usage error (exit 2).
 *
 * Usage: chiplet_vs_monolithic [APP [seed=N] [cpu=0|1] [local=FRAC]
 *                              [bw=GBS] [wf=N]]
 */

#include <iostream>
#include <optional>
#include <string>

#include "core/chiplet_study.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "workloads/kernel_profile.hh"

using namespace ena;

namespace {

constexpr const char *usage =
    "Usage: chiplet_vs_monolithic [APP [seed=N] [cpu=0|1] [local=FRAC] "
    "[bw=GBS] [wf=N]]";

/** Report @p arg as unknown, print the usage line, and return 2. */
int
usageError(const std::string &arg)
{
    std::cerr << "chiplet_vs_monolithic: unknown argument '" << arg
              << "'\n" << usage << "\n";
    return 2;
}

/** @p arg, argument @p what, as a number; fatal unless all of it parses. */
double
numberArg(const char *what, const std::string &arg)
{
    const std::optional<double> v = parseDouble(arg);
    if (!v)
        ENA_FATAL(what, " '", arg, "' is not a number");
    return *v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    App app = App::XSBench;
    if (argc > 1)
        app = appFromName(argv[1]);

    ChipletStudy study;
    ChipletStudyParams params = ChipletStudyParams::forApp(app);
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        if (eq == std::string::npos)
            return usageError(a);
        const std::string key = a.substr(0, eq);
        auto value = [&] { return numberArg(key.c_str(), a.substr(eq + 1)); };
        if (key == "seed")
            params.seed = static_cast<std::uint64_t>(value());
        else if (key == "cpu")
            params.cpuTraffic = value() != 0.0;
        else if (key == "local")
            params.localPlacementFrac = value();
        else if (key == "bw")
            params.aggregateBwGbs = value();
        else if (key == "wf")
            params.wavefrontsPerCu = static_cast<int>(value());
        else
            return usageError(a);
    }

    std::cout << "Running " << appName(app) << " on the scaled EHP ("
              << params.gpuChiplets << " GPU chiplets x "
              << params.cusPerChiplet << " CUs, "
              << params.wavefrontsPerCu << " wavefronts/CU)...\n\n";

    Fig7Row row = study.compare(app, params);

    TextTable t({"metric", "chiplet EHP", "monolithic EHP"});
    t.row()
        .add("runtime (us)")
        .add(row.chiplet.runtimeUs, "%.1f")
        .add(row.monolithic.runtimeUs, "%.1f");
    t.row()
        .add("out-of-chiplet traffic")
        .add(row.chiplet.remoteTrafficFrac * 100.0, "%.1f%%")
        .add("n/a (single die)");
    t.row()
        .add("L2 hit rate")
        .add(row.chiplet.l2HitRate, "%.3f")
        .add(row.monolithic.l2HitRate, "%.3f");
    t.row()
        .add("mean router hops")
        .add(row.chiplet.meanHops, "%.2f")
        .add(row.monolithic.meanHops, "%.2f");
    t.row()
        .add("mean net latency (ns)")
        .add(row.chiplet.meanNetLatencyNs, "%.1f")
        .add(row.monolithic.meanNetLatencyNs, "%.1f");
    t.row()
        .add("HBM row-hit rate")
        .add(row.chiplet.hbmRowHitRate, "%.3f")
        .add(row.monolithic.hbmRowHitRate, "%.3f");
    t.row()
        .add("events processed")
        .add(static_cast<long long>(row.chiplet.eventsProcessed))
        .add(static_cast<long long>(row.monolithic.eventsProcessed));
    t.print(std::cout);

    std::cout << "\nEHP performance relative to monolithic: "
              << row.perfVsMonolithicPct << " %\n";
    return 0;
}
