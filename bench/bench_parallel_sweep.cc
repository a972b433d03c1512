/**
 * @file
 * Serial-vs-parallel wall time of the paper's hottest loops: the full
 * DSE grid sweep and the Table II per-application search, on the
 * ThreadPool substrate every study now uses.
 *
 * Also cross-checks that the parallel results are element-for-element
 * identical to the single-threaded run (exit code 1 on mismatch), so
 * the CI smoke job exercises the determinism guarantee end-to-end.
 *
 * Timing alternates between the two pool sizes, one round at a time,
 * and reports per-side medians: a host stall or a shift in core speed
 * then lands on both sides alike instead of deciding the verdict.
 * Every timed search runs on a fresh explorer, built outside the
 * timer: a later search on one explorer reuses the first one's flops
 * and prices only power.
 *
 * Just before the timed rounds, a probe runs fixed arithmetic on N
 * plain std::threads and on one, with no pool, lock or shared data.
 * Its speedup, printed beside the sweep's, is what the host gave this
 * process then: a failed speedup gate with a probe near 1x is the
 * host's doing, not the pool's.
 *
 * Usage: bench_parallel_sweep [THREADS] [--json <path>]
 *   (THREADS default: ENA_THREADS / all)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/dse.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct DseOutputs
{
    std::vector<DsePoint> points;
    std::vector<TableIIRow> rows;
    std::vector<double> sweepSec;   ///< one sample per round
    std::vector<double> tableSec;
};

/** One round on a fresh @p threads pool: an untimed warm-up sweep,
 *  then one timed sweep and one timed Table II search, each the first
 *  search of its own explorer. */
void
timeRound(const DseGrid &grid, const NodeConfig &best_mean, int threads,
          DseOutputs &out)
{
    auto explorer = [&] {
        return DesignSpaceExplorer(bench::evaluator(), grid,
                                   cal::nodePowerBudgetW);
    };
    ThreadPool::setGlobalThreads(threads);
    explorer().sweep(PowerOptConfig::none());

    const DesignSpaceExplorer sweep_dse = explorer();
    auto t0 = std::chrono::steady_clock::now();
    out.points = sweep_dse.sweep(PowerOptConfig::none());
    out.sweepSec.push_back(secondsSince(t0));

    const DesignSpaceExplorer table_dse = explorer();
    t0 = std::chrono::steady_clock::now();
    out.rows = table_dse.tableII(best_mean);
    out.tableSec.push_back(secondsSince(t0));
}

/** Seconds @p threads plain threads take for a fixed total of integer
 *  arithmetic, split evenly between them. */
double
probeSeconds(int threads)
{
    const std::uint64_t total_steps = std::uint64_t{1} << 24;
    std::vector<std::uint64_t> out(threads);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&out, t, steps = total_steps / threads] {
            std::uint64_t x = 0x9e3779b97f4a7c15ull + t;   // xorshift64
            for (std::uint64_t i = 0; i < steps; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            out[t] = x;
        });
    }
    for (std::thread &w : workers)
        w.join();
    const double sec = secondsSince(t0);
    volatile std::uint64_t sink = 0;
    for (std::uint64_t x : out)
        sink = sink + x;
    return sec;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

bool
identical(const DseOutputs &a, const DseOutputs &b)
{
    if (a.points.size() != b.points.size() ||
        a.rows.size() != b.rows.size())
        return false;
    for (size_t i = 0; i < a.points.size(); ++i) {
        const DsePoint &p = a.points[i];
        const DsePoint &q = b.points[i];
        if (p.geomeanFlops != q.geomeanFlops ||
            p.meanBudgetPowerW != q.meanBudgetPowerW ||
            p.maxBudgetPowerW != q.maxBudgetPowerW ||
            p.feasible != q.feasible || p.cfg.cus != q.cfg.cus ||
            p.cfg.freqGhz != q.cfg.freqGhz ||
            p.cfg.bwTbs != q.cfg.bwTbs)
            return false;
    }
    for (size_t i = 0; i < a.rows.size(); ++i) {
        const TableIIRow &p = a.rows[i];
        const TableIIRow &q = b.rows[i];
        if (p.app != q.app ||
            p.benefitNoOptPct != q.benefitNoOptPct ||
            p.benefitWithOptPct != q.benefitWithOptPct ||
            p.bestConfig.cus != q.bestConfig.cus ||
            p.bestConfigOpt.cus != q.bestConfigOpt.cus)
            return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathFromArgs(argc, argv);
    int threads = (argc > 1 && argv[1][0] != '-')
                      ? std::atoi(argv[1])
                      : ThreadPool::defaultThreads();
    if (threads < 1)
        threads = 1;
    const int rounds = 15;

    bench::banner("Parallel sweep engine",
                  "Wall time of the paper DSE grid (sweep + Table II "
                  "search) serial vs parallel,\nand a bitwise "
                  "serial/parallel equivalence check.");

    DseGrid grid = DseGrid::paperGrid();
    const NodeConfig best_mean = bench::bestMean();

    std::cout << "grid: " << grid.size() << " configurations x "
              << allApps().size() << " applications; hardware threads: "
              << std::thread::hardware_concurrency()
              << "; parallel run uses " << threads << " thread(s)\n\n";

    std::vector<double> probe_serial, probe_parallel;
    for (int r = 0; r < 3; ++r) {
        probe_serial.push_back(probeSeconds(1));
        probe_parallel.push_back(probeSeconds(threads));
    }
    const double probe_serial_s = median(probe_serial);
    const double probe_parallel_s = median(probe_parallel);
    const double probe_speedup = probe_serial_s / probe_parallel_s;

    DseOutputs serial, parallel;
    for (int r = 0; r < rounds; ++r) {
        timeRound(grid, best_mean, 1, serial);
        timeRound(grid, best_mean, threads, parallel);
    }
    ThreadPool::setGlobalThreads(0);

    const double serial_sweep = median(serial.sweepSec);
    const double parallel_sweep = median(parallel.sweepSec);
    const double serial_table = median(serial.tableSec);
    const double parallel_table = median(parallel.tableSec);
    double sweep_speedup = serial_sweep / parallel_sweep;
    double table_speedup = serial_table / parallel_table;

    TextTable t({"phase", "serial ms", "parallel ms", "speedup"});
    t.row()
        .add("full-grid sweep")
        .add(serial_sweep * 1e3, "%.3f")
        .add(parallel_sweep * 1e3, "%.3f")
        .add(sweep_speedup, "%.2fx");
    t.row()
        .add("Table II search")
        .add(serial_table * 1e3, "%.3f")
        .add(parallel_table * 1e3, "%.3f")
        .add(table_speedup, "%.2fx");
    t.row()
        .add("plain-thread probe")
        .add(probe_serial_s * 1e3, "%.3f")
        .add(probe_parallel_s * 1e3, "%.3f")
        .add(probe_speedup, "%.2fx");
    bench::show(t, "parallel_sweep");

    const bool bit_identical = identical(serial, parallel);
    if (!json_path.empty()) {
        bench::JsonReport report("parallel_sweep");
        report.metric("grid_configs",
                      static_cast<double>(grid.size()));
        report.metric("apps", static_cast<double>(allApps().size()));
        report.metric("threads", threads);
        report.metric("rounds", rounds);
        report.metric("sweep_serial_ms", serial_sweep * 1e3);
        report.metric("sweep_parallel_ms", parallel_sweep * 1e3);
        report.metric("sweep_speedup", sweep_speedup);
        report.metric("tableII_serial_ms", serial_table * 1e3);
        report.metric("tableII_parallel_ms", parallel_table * 1e3);
        report.metric("tableII_speedup", table_speedup);
        report.metric("thread_probe_speedup", probe_speedup);
        report.metric("bit_identical", bit_identical ? 1.0 : 0.0);
        if (!report.writeTo(json_path))
            return 1;
    }

    if (!bit_identical) {
        std::cerr << "\nFAIL: parallel results differ from serial "
                     "results\n";
        return 1;
    }
    std::cout << "\ndeterminism: parallel output is element-for-element "
                 "identical to serial output\n";

    // The speedup gate only applies where parallelism is physically
    // available (acceptance: >= 2x with 4+ hardware threads).
    if (std::thread::hardware_concurrency() >= 4 && threads >= 4) {
        if (sweep_speedup < 2.0) {
            std::cerr << "FAIL: sweep speedup " << sweep_speedup
                      << "x < 2x with " << threads
                      << " threads (plain-thread probe: " << probe_speedup
                      << "x)\n";
            return 1;
        }
        std::cout << "speedup gate: " << sweep_speedup
                  << "x >= 2x with " << threads
                  << " threads (plain-thread probe: " << probe_speedup
                  << "x) — ok\n";
    } else {
        std::cout << "speedup gate skipped (need 4+ hardware threads; "
                     "this host has "
                  << std::thread::hardware_concurrency() << ")\n";
    }
    return 0;
}
