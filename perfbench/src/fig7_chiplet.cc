/**
 * @file
 * fig7_chiplet: the cycle-level path. One op is one Fig. 7 row,
 * ChipletStudy::compare(app, p), issued one at a time from the main
 * thread: the sharded chiplet run (hub + one domain per GPU chiplet)
 * runs beside the always-serial monolithic run. Event dispatch, the
 * NoC and memory models and PDES windowing do nearly all the work; the
 * workload never touches the evaluator, the memo or the wire format
 * (it is the null workload for those layers).
 *
 * Check: each distinct (app, params) row is bit-identical to the same
 * compare() with serialWindows = true, computed before the timed loop,
 * so every repeat is also bit-identical to the first.
 */


#include "bench.hh"
#include "core/chiplet_study.hh"
#include "inputs.hh"
#include "util/thread_pool.hh"

namespace perfbench {

using namespace ena;

namespace {

void
addRun(Digest &d, const ChipletRunResult &r)
{
    d.add(r.runtimeUs)
        .add(r.remoteTrafficFrac)
        .add(r.l2HitRate)
        .add(r.meanHops)
        .add(r.meanNetLatencyNs)
        .add(r.hbmRowHitRate)
        .add(r.memOps)
        .add(r.eventsProcessed);
}

std::uint64_t
rowDigest(const Fig7Row &row)
{
    Digest d;
    d.add(static_cast<int>(row.app))
        .add(row.remoteTrafficPct)
        .add(row.perfVsMonolithicPct);
    addRun(d, row.chiplet);
    addRun(d, row.monolithic);
    return d.value();
}

/** The modelled-design values of one chiplet/monolithic pair. */
void
recordModel(RunReport &report, const ChipletRunResult &chiplet,
            const ChipletRunResult &mono)
{
    auto &m = report.model;
    m["noc.remote_traffic_frac"] = chiplet.remoteTrafficFrac;
    m["noc.mean_hops"] = chiplet.meanHops;
    m["noc.mean_latency_ns"] = chiplet.meanNetLatencyNs;
    m["mem.l2_hit_rate"] = chiplet.l2HitRate;
    m["mem.hbm_row_hit_rate"] = chiplet.hbmRowHitRate;
    m["gpu.sim_runtime_us_chiplet"] = chiplet.runtimeUs;
    m["gpu.sim_runtime_us_monolithic"] = mono.runtimeUs;
    m["core.fig7_perf_vs_monolithic_pct"] =
        mono.runtimeUs / chiplet.runtimeUs * 100.0;
}

} // anonymous namespace

void
runFig7Chiplet(const Options &opts, RunReport &report)
{
    const std::vector<Fig7Case> cases = fig7Cases(opts.seed);

    ThreadPool::global();
    ChipletStudy study;

    // Oracle: serial-window execution of every distinct case.
    std::vector<std::uint64_t> expect;
    Digest all;
    for (const Fig7Case &c : cases) {
        ChipletStudyParams p = c.params;
        p.serialWindows = true;
        Fig7Row row = study.compare(c.app, p);
        expect.push_back(rowDigest(row));
        all.add(expect.back());
        if (expect.size() == 1)
            recordModel(report, row.chiplet, row.monolithic);
    }
    report.digests["fig7_rows"] = all.hex();

    std::uint64_t events = 0;   // of the untraced loop (sim_events_per_s)
    auto op = [&](std::size_t i) {
        const std::size_t k = i % cases.size();
        ++report.attempted;
        Fig7Row row;
        {
            Span s("fig7_chiplet.op", static_cast<std::int64_t>(i));
            row = study.compare(cases[k].app, cases[k].params);
        }
        if (!tracer::enabled()) {
            events += row.chiplet.eventsProcessed +
                      row.monolithic.eventsProcessed;
        }
        if (rowDigest(row) != expect[k]) {
            report.fail("op " + std::to_string(i) + " (" +
                        appName(cases[k].app) +
                        ") differs from its serial-window run");
        }
    };

    // Whole cycles of cases, so every case is equally represented in
    // the latency distribution, and at least kMinCycles of them: 42 ops
    // leave 10 samples beyond p75 for latency_tail_ms.
    constexpr std::size_t kMinCycles = 7;
    measure(opts, report, kMinCycles * cases.size(),
            [&](double seconds, std::size_t min_ops,
                std::vector<double> &lat) {
                return timedLoop(seconds, min_ops, cases.size(), op, lat);
            });
    report.simEvents = events;
}

double
setUpFig7Chiplet(Clock::time_point started)
{
    ThreadPool::global();
    [[maybe_unused]] const ChipletStudy study;
    return secondsSince(started);
}

void
probeSim(const Options &opts, RunReport &report)
{
    const std::size_t since = tracer::count();   // this probe's spans only
    // The four ways to run the reference case's chiplet model, plus
    // its monolithic counterpart, each one ChipletStudy::run.
    const Fig7Case ref = fig7Cases(opts.seed)[0];
    ChipletStudy study;
    auto &L = report.layers;

    ChipletStudyParams serial = ref.params;
    serial.serialWindows = true;
    ChipletStudyParams unsharded = ref.params;
    unsharded.domains = 1;

    ChipletRunResult sharded_r, serial_r, mono_r;
    {
        Span s("sim.chiplet_sharded");
        sharded_r = study.run(ref.app, ref.params, false);
    }
    {
        Span s("sim.chiplet_serial_windows");
        serial_r = study.run(ref.app, serial, false);
    }
    {
        Span s("sim.chiplet_unsharded");
        study.run(ref.app, unsharded, false);
    }
    {
        Span s("sim.monolithic");
        mono_r = study.run(ref.app, ref.params, true);
    }
    Digest a, b;
    addRun(a, sharded_r);
    addRun(b, serial_r);
    if (a.value() != b.value())
        report.fail("probe: pooled and serial windows differ");

    const double sharded = spanMedianNs("sim.chiplet_sharded", since);
    const double windows = spanMedianNs("sim.chiplet_serial_windows", since);
    const double flat = spanMedianNs("sim.chiplet_unsharded", since);
    const double mono = spanMedianNs("sim.monolithic", since);
    L["sim.chiplet_sharded_ms"] = sharded / 1e6;
    L["sim.chiplet_serial_windows_ms"] = windows / 1e6;
    L["sim.chiplet_unsharded_ms"] = flat / 1e6;
    L["sim.monolithic_ms"] = mono / 1e6;
    L["sim.window_pool_speedup"] = windows / sharded;
    L["sim.shard_overhead"] = windows / flat;
    L["sim.events_chiplet"] = static_cast<double>(sharded_r.eventsProcessed);
    L["sim.events_monolithic"] = static_cast<double>(mono_r.eventsProcessed);
    L["sim.host_ns_per_event_chiplet"] =
        sharded / static_cast<double>(sharded_r.eventsProcessed);
    L["sim.host_ns_per_event_monolithic"] =
        mono / static_cast<double>(mono_r.eventsProcessed);
    recordModel(report, sharded_r, mono_r);
}

} // namespace perfbench
