/**
 * @file
 * Throughput of the batched evaluation path (PR 6 tentpole): scalar
 * NodeEvaluator::evaluate vs NodeEvaluator::evaluateBatchAll on the
 * paper's Table II grid, serial and across the ThreadPool.
 *
 * The scalar path is the reference oracle: the bench recomputes every
 * grid point's aggregates (geomean flops, mean/max budget power over
 * all Table I applications) with per-point evaluate() calls and
 * requires the batched results — serial, parallel, and the full
 * DesignSpaceExplorer::sweep built on them — to be bit-for-bit
 * identical. Any mismatch is fatal (exit 1); that is the CI gate.
 *
 * Wall-clock numbers (configs/sec and speedups) are reported and
 * written to the `--json` artifact but never gate, since shared CI
 * runners make timing noisy.
 *
 * Usage: bench_batch_eval [--json <path>]
 */

#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/dse.hh"
#include "util/stats_math.hh"
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

/** Per-config aggregates over all apps, in grid-enumeration order. */
struct Aggregates
{
    std::vector<double> geomeanFlops;
    std::vector<double> meanBudgetPowerW;
    std::vector<double> maxBudgetPowerW;
};

/** The grid flattened row-major (cus outer, freq, bw inner) — the
 *  same enumeration order DesignSpaceExplorer::configAt uses. */
std::vector<NodeConfig>
flatten(const DseGrid &grid)
{
    std::vector<NodeConfig> cfgs;
    cfgs.reserve(grid.size());
    for (int cu : grid.cus) {
        for (double f : grid.freqsGhz) {
            for (double bw : grid.bwsTbs) {
                NodeConfig cfg;
                cfg.cus = cu;
                cfg.freqGhz = f;
                cfg.bwTbs = bw;
                cfg.opts = PowerOptConfig::none();
                cfgs.push_back(cfg);
            }
        }
    }
    return cfgs;
}

/** Reference oracle: per-point scalar evaluate(), same fold order as
 *  NodeEvaluator::evaluateBatchAll. */
Aggregates
scalarOracle(const NodeEvaluator &eval,
             const std::vector<NodeConfig> &cfgs)
{
    const std::vector<App> &apps = allApps();
    Aggregates a;
    a.geomeanFlops.resize(cfgs.size());
    a.meanBudgetPowerW.resize(cfgs.size());
    a.maxBudgetPowerW.resize(cfgs.size());
    std::vector<double> flops(apps.size());
    std::vector<double> budget(apps.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t k = 0; k < apps.size(); ++k) {
            EvalResult r = eval.evaluate(cfgs[i], apps[k]);
            flops[k] = r.perf.flops;
            budget[k] = r.power.budgetPower();
        }
        a.geomeanFlops[i] = geomean(flops);
        a.meanBudgetPowerW[i] = mean(budget);
        double worst = 0.0;
        for (double w : budget)
            worst = std::max(worst, w);
        a.maxBudgetPowerW[i] = worst;
    }
    return a;
}

/** One whole-grid batched pass (serial path: a single batch). */
Aggregates
batchSerial(const NodeEvaluator &eval, const NodeConfigBatch &batch)
{
    BatchAggregates r = eval.evaluateBatchAll(batch);
    return {std::move(r.geomeanFlops), std::move(r.meanBudgetPowerW),
            std::move(r.maxBudgetPowerW)};
}

/** Chunked parallel pass — the same shape DesignSpaceExplorer::sweep
 *  uses (sweepChunkSize chunks become batches). */
Aggregates
batchParallel(const NodeEvaluator &eval,
              const std::vector<NodeConfig> &cfgs)
{
    const std::size_t n = cfgs.size();
    Aggregates a;
    a.geomeanFlops.resize(n);
    a.meanBudgetPowerW.resize(n);
    a.maxBudgetPowerW.resize(n);

    const std::size_t chunk =
        sweepChunkSize(n, ThreadPool::global().threads());
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    ThreadPool::global().parallelFor(num_chunks, [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(n, begin + chunk);
        NodeConfigBatch b;
        b.base = cfgs[begin];
        b.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i)
            b.push(cfgs[i].cus, cfgs[i].freqGhz, cfgs[i].bwTbs);
        BatchAggregates r = eval.evaluateBatchAll(b);
        for (std::size_t i = begin; i < end; ++i) {
            a.geomeanFlops[i] = r.geomeanFlops[i - begin];
            a.meanBudgetPowerW[i] = r.meanBudgetPowerW[i - begin];
            a.maxBudgetPowerW[i] = r.maxBudgetPowerW[i - begin];
        }
    });
    return a;
}

bool
identical(const Aggregates &a, const Aggregates &b, const char *what)
{
    if (a.geomeanFlops.size() != b.geomeanFlops.size()) {
        std::cerr << "FAIL: " << what << ": size mismatch\n";
        return false;
    }
    for (std::size_t i = 0; i < a.geomeanFlops.size(); ++i) {
        if (a.geomeanFlops[i] != b.geomeanFlops[i] ||
            a.meanBudgetPowerW[i] != b.meanBudgetPowerW[i] ||
            a.maxBudgetPowerW[i] != b.maxBudgetPowerW[i]) {
            std::cerr << "FAIL: " << what << ": point " << i
                      << " differs from the scalar oracle\n";
            return false;
        }
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathFromArgs(argc, argv);
    int threads = ThreadPool::defaultThreads();
    if (threads < 1)
        threads = 1;
    const int repeats = 5;

    bench::banner("Batched evaluation engine",
                  "configs/sec of the scalar vs batched NodeEvaluator "
                  "paths on the Table II grid,\nwith a bitwise "
                  "scalar/batch equivalence gate.");

    const NodeEvaluator &eval = bench::evaluator();
    DseGrid grid = DseGrid::paperGrid();
    const std::vector<NodeConfig> cfgs = flatten(grid);
    NodeConfigBatch whole =
        NodeConfigBatch::fromAxes(cfgs.front(), grid.cus,
                                  grid.freqsGhz, grid.bwsTbs);

    std::cout << "grid: " << grid.size() << " configurations x "
              << allApps().size() << " applications; hardware threads: "
              << std::thread::hardware_concurrency()
              << "; parallel run uses " << threads << " thread(s)\n\n";

    // Scalar oracle (serial by construction: plain per-point loop).
    ThreadPool::setGlobalThreads(1);
    auto t0 = std::chrono::steady_clock::now();
    Aggregates oracle;
    for (int r = 0; r < repeats; ++r)
        oracle = scalarOracle(eval, cfgs);
    const double scalar_sec = secondsSince(t0) / repeats;

    // Batched, still single-threaded: the SoA + shared-term speedup
    // alone.
    t0 = std::chrono::steady_clock::now();
    Aggregates serial_batch;
    for (int r = 0; r < repeats; ++r)
        serial_batch = batchSerial(eval, whole);
    const double batch_serial_sec = secondsSince(t0) / repeats;

    // Batched across the pool: the production sweep shape.
    ThreadPool::setGlobalThreads(threads);
    Aggregates parallel_batch;
    t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r)
        parallel_batch = batchParallel(eval, cfgs);
    const double batch_parallel_sec = secondsSince(t0) / repeats;

    // The production consumer end-to-end: the ported DSE sweep.
    DesignSpaceExplorer dse(eval, grid, cal::nodePowerBudgetW);
    std::vector<DsePoint> swept = dse.sweep(PowerOptConfig::none());
    Aggregates sweep_agg;
    for (const DsePoint &p : swept) {
        sweep_agg.geomeanFlops.push_back(p.geomeanFlops);
        sweep_agg.meanBudgetPowerW.push_back(p.meanBudgetPowerW);
        sweep_agg.maxBudgetPowerW.push_back(p.maxBudgetPowerW);
    }

    const double n = static_cast<double>(grid.size());
    const double scalar_cps = n / scalar_sec;
    const double batch_serial_cps = n / batch_serial_sec;
    const double batch_parallel_cps = n / batch_parallel_sec;
    const double serial_speedup = scalar_sec / batch_serial_sec;
    const double parallel_speedup = scalar_sec / batch_parallel_sec;

    TextTable t({"path", "ms/pass", "configs/sec", "vs scalar"});
    t.row()
        .add("scalar serial (oracle)")
        .add(scalar_sec * 1e3, "%.2f")
        .add(scalar_cps, "%.0f")
        .add(1.0, "%.2fx");
    t.row()
        .add("batched serial")
        .add(batch_serial_sec * 1e3, "%.2f")
        .add(batch_serial_cps, "%.0f")
        .add(serial_speedup, "%.2fx");
    t.row()
        .add("batched parallel")
        .add(batch_parallel_sec * 1e3, "%.2f")
        .add(batch_parallel_cps, "%.0f")
        .add(parallel_speedup, "%.2fx");
    bench::show(t, "batch_eval");

    const bool bit_identical =
        identical(serial_batch, oracle, "batched serial") &&
        identical(parallel_batch, oracle, "batched parallel") &&
        identical(sweep_agg, oracle, "DSE sweep");

    if (!json_path.empty()) {
        bench::JsonReport report("batch_eval");
        report.metric("grid_configs", n);
        report.metric("apps", static_cast<double>(allApps().size()));
        report.metric("threads", threads);
        report.metric("repeats", repeats);
        report.metric("scalar_configs_per_sec", scalar_cps);
        report.metric("batch_serial_configs_per_sec", batch_serial_cps);
        report.metric("batch_parallel_configs_per_sec",
                      batch_parallel_cps);
        report.metric("speedup_batch_serial", serial_speedup);
        report.metric("speedup_batch_parallel", parallel_speedup);
        report.metric("bit_identical", bit_identical ? 1.0 : 0.0);
        if (!report.writeTo(json_path))
            return 1;
    }

    if (!bit_identical) {
        std::cerr << "\nFAIL: batched results are not bit-identical "
                     "to the scalar oracle\n";
        return 1;
    }
    std::cout << "\ndeterminism: batched output is bit-identical to the "
                 "scalar oracle (serial, parallel, and full sweep)\n";
    return 0;
}
