/**
 * @file
 * Shared pieces of the benchmark program: run options, the raw report
 * every workload fills in (run.py turns it into the end-to-end
 * metrics), the timed loop, and output digests.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outPath;     ///< raw report (JSON)
    std::string spansPath;   ///< span dump (traced runs)
    std::string socketPath;  ///< server_mix / probe Unix socket
};

/** What one run measured, before run.py derives metrics from it. */
struct RunReport
{
    std::vector<double> latenciesMs;       ///< untraced timed loop
    double loopS = 0.0;                    ///< its wall time
    std::vector<double> tracedLatenciesMs; ///< traced pass (trace mode)
    double tracedLoopS = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;     ///< first few messages
    std::uint64_t simEvents = 0;           ///< untraced loop (fig7)
    std::map<std::string, double> model;   ///< modelled-design values
    std::map<std::string, double> layers;  ///< per-layer metrics
    std::map<std::string, std::string> digests;

    /** Count one failed op or check and keep its message. */
    void fail(const std::string &what);
};

using Clock = std::chrono::steady_clock;

/** Seconds since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Record @p why as a failure, write the report and end the process
 * with a nonzero code. For conditions the run cannot recover from,
 * such as a server that does not stop within its bounded wait.
 */
[[noreturn]] void abortRun(const Options &opts, RunReport &report,
                           const std::string &why);

double median(std::vector<double> v);

/**
 * Median of the per-item durations (ns) of spans named @p name, among
 * the spans recorded after the first @p first. A probe passes the span
 * count at its start, so its metrics never mix in the workload's spans.
 */
double spanMedianNs(const std::string &name, std::size_t first);

/**
 * Run op(i) for i = 0, 1, ... back to back until @p seconds have
 * elapsed and at least @p min_ops ops ran, stopping only after a
 * multiple of @p granule ops; appends each op's latency (ms) to
 * @p latencies and returns the loop's wall seconds.
 */
template <typename Op>
double
timedLoop(double seconds, std::size_t min_ops, std::size_t granule,
          Op &&op, std::vector<double> &latencies)
{
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0;; ++i) {
        if (i >= min_ops && i % granule == 0 && secondsSince(t0) >= seconds)
            break;
        auto s = std::chrono::steady_clock::now();
        op(i);
        latencies.push_back(secondsSince(s) * 1e3);
    }
    return secondsSince(t0);
}

/**
 * The measurement every workload shares. Untraced: one loop over all
 * of --seconds with at least @p min_ops ops. Traced: half the time
 * untraced, then half with spans on, same inputs; the p50 difference
 * is the tracing overhead. loop(seconds, min_ops, latencies) runs one
 * loop and returns its wall seconds.
 */
template <typename Loop>
void
measure(const Options &opts, RunReport &report, std::size_t min_ops,
        Loop &&loop)
{
    if (!opts.trace) {
        report.loopS = loop(opts.seconds, min_ops, report.latenciesMs);
        return;
    }
    report.loopS = loop(opts.seconds / 2, 1, report.latenciesMs);
    tracer::setEnabled(true);
    report.tracedLoopS =
        loop(opts.seconds / 2, 1, report.tracedLatenciesMs);
}

/** FNV-1a over the exact bits of doubles, integers and strings. */
class Digest
{
  public:
    Digest &
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return add(bits);
    }
    Digest &
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mix(static_cast<unsigned char>(v >> (8 * i)));
        return *this;
    }
    Digest &add(int v) { return add(static_cast<std::uint64_t>(v)); }
    Digest &add(bool v) { return add(static_cast<std::uint64_t>(v)); }
    Digest &
    add(const std::string &s)
    {
        for (unsigned char c : s)
            mix(c);
        return add(static_cast<std::uint64_t>(s.size()));
    }
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    void
    mix(unsigned char c)
    {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    std::uint64_t h_ = 1469598103934665603ull;
};

// --- workloads (one file each) -------------------------------------
void runDseTable2(const Options &opts, RunReport &report);
void runFig7Chiplet(const Options &opts, RunReport &report);
void runServerMix(const Options &opts, RunReport &report);

// --- set-up only (--setup-only; run.py derives setup_s from it) ----
/**
 * The workload's set-up as a fresh process does it before its first
 * op, and nothing else: no inputs, no oracle, no ops. Returns the
 * seconds from @p started (entry of main) to the moment the first op
 * could be issued, then tears down what it set up.
 */
double setUpDseTable2(Clock::time_point started);
double setUpFig7Chiplet(Clock::time_point started);
double setUpServerMix(const Options &opts, RunReport &report,
                      Clock::time_point started);

// --- per-layer probes, run after the workload in traced runs -------
void probeUtilCore(const Options &opts, RunReport &report);
void probeSim(const Options &opts, RunReport &report);
void probeServer(const Options &opts, RunReport &report);

/** Generator self-checks (determinism, feasibility); 0 when all pass. */
int selfTestInputs();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
