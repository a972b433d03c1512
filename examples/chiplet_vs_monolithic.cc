/**
 * @file
 * Cycle-level chiplet study walkthrough (paper Section V-A, Fig. 7).
 *
 * Runs the event-driven EHP model in chiplet and monolithic modes for
 * one application and prints the traffic split, cache behaviour, and
 * relative performance. Every argument is checked before the model is
 * built: an unknown APP, an argument after it that is not one of the
 * KEY=VALUE settings below, or a value out of its range is a usage
 * error (exit 2, with the reason).
 *
 * Usage: chiplet_vs_monolithic [APP [seed=N] [cpu=0|1] [local=FRAC]
 *                              [bw=GBS] [wf=N]]
 *
 * seed is an unsigned 64-bit integer, local a fraction in [0, 1], bw a
 * positive, finite GB/s, and wf a whole number of wavefronts per CU
 * from 1 to 40 (a GCN CU's wavefront slots).
 */

#include <charconv>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>

#include "core/chiplet_study.hh"
#include "util/status.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "workloads/kernel_profile.hh"

using namespace ena;

namespace {

constexpr const char *usage =
    "Usage: chiplet_vs_monolithic [APP [seed=N] [cpu=0|1] [local=FRAC] "
    "[bw=GBS] [wf=N]]";

/** A GCN CU's wavefront slots: 10 on each of its 4 SIMDs. */
constexpr int kMaxWavefrontsPerCu = 40;

/** @p text as a whole decimal T, or nullopt. */
template <typename T>
std::optional<T>
wholeNumber(const std::string &text)
{
    T v{};
    const char *end = text.data() + text.size();
    const std::from_chars_result r = std::from_chars(text.data(), end, v);
    if (r.ec != std::errc() || r.ptr != end)
        return std::nullopt;
    return v;
}

/** Apply one KEY=VALUE argument to @p p; InvalidArgument says why not. */
Status
applySetting(const std::string &arg, ChipletStudyParams &p)
{
    const auto eq = arg.find('=');
    if (eq == std::string::npos)
        return Status::invalidArgument("unknown argument '", arg, "'");
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "seed") {
        const auto n = wholeNumber<std::uint64_t>(value);
        if (!n) {
            return Status::invalidArgument(
                "seed '", value, "' is not an unsigned 64-bit integer");
        }
        p.seed = *n;
    } else if (key == "cpu") {
        if (value != "0" && value != "1")
            return Status::invalidArgument("cpu '", value, "' is not 0 or 1");
        p.cpuTraffic = value == "1";
    } else if (key == "local") {
        const std::optional<double> f = parseDouble(value);
        if (!f || !(*f >= 0.0 && *f <= 1.0)) {
            return Status::invalidArgument(
                "local '", value, "' is not a fraction in [0, 1]");
        }
        p.localPlacementFrac = *f;
    } else if (key == "bw") {
        const std::optional<double> gbs = parseDouble(value);
        if (!gbs || !std::isfinite(*gbs) || *gbs <= 0.0) {
            return Status::invalidArgument(
                "bw '", value, "' is not a positive, finite GB/s");
        }
        p.aggregateBwGbs = *gbs;
    } else if (key == "wf") {
        const auto n = wholeNumber<int>(value);
        if (!n || *n < 1 || *n > kMaxWavefrontsPerCu) {
            return Status::invalidArgument(
                "wf '", value, "' is not a whole number from 1 to ",
                kMaxWavefrontsPerCu);
        }
        p.wavefrontsPerCu = *n;
    } else {
        return Status::invalidArgument("unknown argument '", arg, "'");
    }
    return Status();
}

/** Print @p why and the usage line; the exit status of a usage error. */
int
usageError(const Status &why)
{
    std::cerr << "chiplet_vs_monolithic: " << why.message() << "\n"
              << usage << "\n";
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    App app = App::XSBench;
    if (argc > 1) {
        Expected<App> named = tryAppFromName(argv[1]);
        if (!named.ok())
            return usageError(named.status());
        app = *named;
    }

    ChipletStudy study;
    ChipletStudyParams params = ChipletStudyParams::forApp(app);
    for (int i = 2; i < argc; ++i) {
        const Status set = applySetting(argv[i], params);
        if (!set.ok())
            return usageError(set);
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
