/**
 * @file
 * ena_perfbench: runs one benchmark workload against the ena library
 * and writes a raw report (set-up times, per-op latencies, failures,
 * output digests, per-layer metrics) that run.py turns into the
 * benchmark's metrics.
 *
 *   ena_perfbench --workload dse_table2|fig7_chiplet|server_mix
 *                 --seed N --seconds S --trace 0|1
 *                 --out REPORT.json [--spans SPANS.json]
 *                 [--socket PATH]
 *   ena_perfbench --workload W --setup-only [--socket PATH]
 *                 (server_mix needs --socket)
 *   ena_perfbench --self-test
 *
 * With --setup-only the process does the workload's set-up and nothing
 * else, and prints the seconds from the entry of main to the moment
 * its first op could be issued; run.py starts several such processes
 * and reports their median as setup_s.
 *
 * With --trace 1 the timed loop runs half untraced and half traced
 * (their p50 difference is the tracing overhead), then every layer's
 * probe runs with spans on and the spans are written to --spans.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench.hh"
#include "common/calibration.hh"
#include "core/node_evaluator.hh"
#include "inputs.hh"
#include "server/wire.hh"
#include "util/thread_pool.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

using ena::wire::JsonValue;

void
RunReport::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
spanMedianNs(const std::string &name, std::size_t first)
{
    return median(tracer::itemDurationsNs(name, first));
}

namespace {

JsonValue
numbers(const std::vector<double> &v)
{
    JsonValue a = JsonValue::array();
    for (double x : v)
        a.push(x);
    return a;
}

JsonValue
numberMap(const std::map<std::string, double> &m)
{
    JsonValue o = JsonValue::object();
    for (const auto &[k, v] : m)
        o.set(k, v);
    return o;
}

bool
writeReport(const Options &opts, const RunReport &r)
{
    JsonValue o = JsonValue::object();
    o.set("workload", opts.workload);
    o.set("seed", static_cast<double>(opts.seed));
    o.set("seconds", opts.seconds);
    o.set("trace", opts.trace);
    o.set("build_type", PERFBENCH_BUILD_TYPE);
    o.set("compiler", PERFBENCH_COMPILER);
    o.set("pool_threads", ena::ThreadPool::global().threads());
    o.set("latencies_ms", numbers(r.latenciesMs));
    o.set("loop_s", r.loopS);
    o.set("traced_latencies_ms", numbers(r.tracedLatenciesMs));
    o.set("traced_loop_s", r.tracedLoopS);
    o.set("attempted", static_cast<double>(r.attempted));
    o.set("failed", static_cast<double>(r.failed));
    JsonValue f = JsonValue::array();
    for (const std::string &s : r.failures)
        f.push(s);
    o.set("failures", std::move(f));
    o.set("sim_events", static_cast<double>(r.simEvents));
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    o.set("peak_rss_kb", static_cast<double>(ru.ru_maxrss));
    o.set("model", numberMap(r.model));
    o.set("layers", numberMap(r.layers));
    JsonValue d = JsonValue::object();
    for (const auto &[k, v] : r.digests)
        d.set(k, v);
    o.set("digests", std::move(d));
    o.set("spans", static_cast<double>(tracer::count()));

    std::FILE *out = std::fopen(opts.outPath.c_str(), "w");
    if (!out)
        return false;
    const std::string text = o.dump() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), out) ==
                    text.size();
    return std::fclose(out) == 0 && ok;
}

/** Run @p fn, turning an escaping exception into a failure. */
template <typename Fn>
void
guarded(const char *what, RunReport &report, Fn &&fn)
{
    try {
        fn();
    } catch (const std::exception &e) {
        report.fail(std::string(what) + ": " + e.what());
    }
}

int
usage()
{
    std::cerr << "usage: ena_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out REPORT [--spans FILE] "
                 "[--socket PATH]\n"
                 "       ena_perfbench --workload W --setup-only "
                 "[--socket PATH]\n"
                 "       ena_perfbench --self-test\n";
    return 2;
}

int checks = 0;
int failures = 0;

void
expect(bool cond, const std::string &what)
{
    ++checks;
    if (!cond) {
        ++failures;
        std::cerr << "self-test FAIL: " << what << "\n";
    }
}

bool
ascendingIn(const std::vector<double> &v, double lo, double hi)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i] < lo || v[i] > hi || (i && !(v[i] > v[i - 1])))
            return false;
    }
    return true;
}

} // anonymous namespace

void
abortRun(const Options &opts, RunReport &report, const std::string &why)
{
    report.fail(why);
    std::cerr << "ena_perfbench: " << why << "\n";
    writeReport(opts, report);
    std::fflush(nullptr);
    std::_Exit(3);
}

int
selfTestInputs()
{
    const ena::NodeEvaluator eval;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const std::string s = " (seed " + std::to_string(seed) + ")";

        // DSE grids: deterministic, paper-sized, in range, feasible.
        const auto grids = dseGrids(seed);
        const auto again = dseGrids(seed);
        expect(grids.size() == kDseGrids, "grid count" + s);
        for (std::size_t g = 0; g < grids.size(); ++g) {
            const ena::DseGrid &a = grids[g];
            const ena::DseGrid &b = again[g];
            expect(a.cus == b.cus && a.freqsGhz == b.freqsGhz &&
                       a.bwsTbs == b.bwsTbs,
                   "grid is deterministic" + s);
            expect(a.cus.size() == 7 && a.freqsGhz.size() == 10 &&
                       a.bwsTbs.size() == 7,
                   "grid has the paper's axis sizes" + s);
            std::vector<double> cus(a.cus.begin(), a.cus.end());
            expect(ascendingIn(cus, 192, 384) &&
                       ascendingIn(a.freqsGhz, 0.7, 1.5) &&
                       ascendingIn(a.bwsTbs, 1.0, 7.0),
                   "grid values ascend inside the paper's ranges" + s);
            ena::NodeConfig corner;
            corner.cus = a.cus.front();
            corner.freqGhz = a.freqsGhz.front();
            corner.bwTbs = a.bwsTbs.front();
            expect(corner.cus == 192 && corner.freqGhz == 0.7 &&
                       corner.bwTbs == 1.0 &&
                       eval.maxBudgetPower(corner) <=
                           ena::cal::nodePowerBudgetW,
                   "grid keeps a feasible lowest-power corner" + s);
        }
        expect(dseGrids(seed + 1)[1].cus != grids[1].cus ||
                   dseGrids(seed + 1)[1].freqsGhz != grids[1].freqsGhz,
               "grids depend on the seed" + s);

        // Fig. 7 cases: deterministic, sharded, seeded.
        const auto cases = fig7Cases(seed);
        const auto cases2 = fig7Cases(seed);
        expect(cases.size() == 3 * kFig7ParamSets, "fig7 case count" + s);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            expect(cases[i].app == cases2[i].app &&
                       cases[i].params.seed == cases2[i].params.seed &&
                       cases[i].params.domains > 1,
                   "fig7 cases deterministic and sharded" + s);
        }

        // Request mix: deterministic per (seed, index), mix shares.
        const auto hot = hotConfigs(seed);
        expect(hot == hotConfigs(seed) && hot.size() == kHotSet,
               "hot set deterministic" + s);
        constexpr int kN = 4000;
        int kinds[kReqKinds] = {};
        int hot_evals = 0;
        for (int i = 0; i < kN; ++i) {
            Request a = serverRequest(seed, i, hot);
            Request b = serverRequest(seed, i, hot);
            expect(a.op == b.op && a.params.dump() == b.params.dump(),
                   "request deterministic" + s);
            ++kinds[static_cast<int>(a.kind)];
            hot_evals += a.kind == ReqKind::EvalNode && a.hot;
            if (a.kind == ReqKind::Malformed)
                expect(!a.expectCode.empty(), "malformed has a code" + s);
        }
        auto share = [&](ReqKind k) {
            return kinds[static_cast<int>(k)] / double(kN);
        };
        expect(share(ReqKind::EvalNode) > 0.76 &&
                   share(ReqKind::EvalNode) < 0.84,
               "about 80% eval_node" + s);
        expect(share(ReqKind::Sweep) > 0.06 && share(ReqKind::Sweep) < 0.10,
               "about 8% sweep" + s);
        expect(share(ReqKind::TaskGraph) > 0.045 &&
                   share(ReqKind::TaskGraph) < 0.075,
               "about 6% taskgraph_eval" + s);
        expect(share(ReqKind::Cluster) > 0.028 &&
                   share(ReqKind::Cluster) < 0.052,
               "about 4% cluster_eval" + s);
        expect(share(ReqKind::Malformed) > 0.01 &&
                   share(ReqKind::Malformed) < 0.03,
               "about 2% malformed" + s);
        const double hot_share =
            hot_evals / double(kinds[static_cast<int>(ReqKind::EvalNode)]);
        expect(hot_share > 0.46 && hot_share < 0.54,
               "half the eval_node configs come from the hot set" + s);
        expect(serverRequest(seed, 0, hot).params.dump() !=
                       serverRequest(seed + 1, 0, hotConfigs(seed + 1))
                           .params.dump() ||
                   serverRequest(seed, 1, hot).params.dump() !=
                       serverRequest(seed + 1, 1, hotConfigs(seed + 1))
                           .params.dump(),
               "requests depend on the seed" + s);
    }
    std::cout << "self-test: " << checks << " checks, " << failures
              << " failed\n";
    return failures ? 1 : 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Clock::time_point started = Clock::now();
    Options opts;
    bool self_test = false;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << a << "\n";
                std::exit(usage());
            }
            return argv[++i];
        };
        if (a == "--self-test") {
            self_test = true;
        } else if (a == "--setup-only") {
            setup_only = true;
        } else if (a == "--workload") {
            opts.workload = value();
        } else if (a == "--seed") {
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opts.seconds = std::strtod(value().c_str(), nullptr);
        } else if (a == "--trace") {
            opts.trace = value() == "1";
        } else if (a == "--out") {
            opts.outPath = value();
        } else if (a == "--spans") {
            opts.spansPath = value();
        } else if (a == "--socket") {
            opts.socketPath = value();
        } else {
            std::cerr << "unknown argument " << a << "\n";
            return usage();
        }
    }
    if (self_test)
        return selfTestInputs();

    RunReport report;
    if (setup_only) {
        double seconds = 0.0;
        if (opts.workload == "dse_table2") {
            seconds = setUpDseTable2(started);
        } else if (opts.workload == "fig7_chiplet") {
            seconds = setUpFig7Chiplet(started);
        } else if (opts.workload == "server_mix" &&
                   !opts.socketPath.empty()) {
            seconds = setUpServerMix(opts, report, started);
        } else {
            return usage();
        }
        std::printf("%.9g\n", seconds);
        return 0;
    }
    if (opts.outPath.empty() || !(opts.seconds > 0.0))
        return usage();
    if (opts.socketPath.empty())
        opts.socketPath = opts.outPath + ".sock";

    if (opts.workload == "dse_table2") {
        guarded("dse_table2", report, [&] { runDseTable2(opts, report); });
    } else if (opts.workload == "fig7_chiplet") {
        guarded("fig7_chiplet", report,
                [&] { runFig7Chiplet(opts, report); });
    } else if (opts.workload == "server_mix") {
        guarded("server_mix", report, [&] { runServerMix(opts, report); });
    } else {
        std::cerr << "unknown workload '" << opts.workload << "'\n";
        return usage();
    }

    if (opts.trace) {
        tracer::setEnabled(true);
        guarded("util/core probe", report,
                [&] { probeUtilCore(opts, report); });
        guarded("sim probe", report, [&] { probeSim(opts, report); });
        guarded("server probe", report,
                [&] { probeServer(opts, report); });
        tracer::setEnabled(false);
        const double plain = median(report.latenciesMs);
        const double traced = median(report.tracedLatenciesMs);
        report.layers["trace.overhead_pct"] =
            plain > 0.0 ? (traced / plain - 1.0) * 100.0 : 0.0;
        for (const auto &[k, v] : report.model)
            report.layers[k] = v;
        if (!opts.spansPath.empty() && !tracer::writeJson(opts.spansPath))
            report.fail("cannot write " + opts.spansPath);
    }

    if (!writeReport(opts, report)) {
        std::cerr << "cannot write " << opts.outPath << "\n";
        return 1;
    }
    return 0;
}
