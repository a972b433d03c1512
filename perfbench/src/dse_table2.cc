/**
 * @file
 * dse_table2: the paper's core result path. One op builds a fresh
 * DesignSpaceExplorer on one grid, runs findBestMean(no opts) and then
 * tableII(best). Model arithmetic, batch/memo bookkeeping and pool
 * dispatch do nearly all the work; the workload never touches the
 * simulator, the NoC or the server (it is the null workload for
 * simulator changes).
 *
 * Check: every op's best-mean config and Table II rows are
 * bit-identical to a serial scalar argmax over NodeEvaluator::evaluate
 * computed before the timed loop; op 0 (the paper grid) must find
 * 320 CU / 1.0 GHz / 3 TB/s.
 */

#include <optional>

#include "bench.hh"
#include "common/calibration.hh"
#include "core/dse.hh"
#include "inputs.hh"
#include "util/thread_pool.hh"

namespace perfbench {

using namespace ena;

namespace {

/** What an op must reproduce for one grid. */
struct DseAnswer
{
    NodeConfig bestMean;
    std::vector<TableIIRow> rows;
};

NodeConfig
gridPoint(const DseGrid &g, std::size_t i, const PowerOptConfig &opts)
{
    const std::size_t nf = g.freqsGhz.size();
    const std::size_t nb = g.bwsTbs.size();
    NodeConfig cfg;
    cfg.cus = g.cus[i / (nf * nb)];
    cfg.freqGhz = g.freqsGhz[(i / nb) % nf];
    cfg.bwTbs = g.bwsTbs[i % nb];
    cfg.opts = opts;
    return cfg;
}

/** Serial scalar oracle: argmax over NodeEvaluator::evaluate. */
std::optional<DseAnswer>
oracle(const NodeEvaluator &eval, const DseGrid &g)
{
    const double budget = cal::nodePowerBudgetW;
    const std::size_t n = g.size();
    DseAnswer a;
    std::optional<double> best;
    for (std::size_t i = 0; i < n; ++i) {
        NodeConfig cfg = gridPoint(g, i, PowerOptConfig::none());
        if (eval.maxBudgetPower(cfg) > budget)
            continue;
        double gm = eval.geomeanFlops(cfg);
        if (!best || gm > *best) {
            best = gm;
            a.bestMean = cfg;
        }
    }
    if (!best)
        return std::nullopt;

    for (App app : allApps()) {
        TableIIRow row;
        row.app = app;
        const double base = eval.evaluate(a.bestMean, app).perf.flops;
        for (int with_opt = 0; with_opt < 2; ++with_opt) {
            PowerOptConfig opts =
                with_opt ? PowerOptConfig::all() : PowerOptConfig::none();
            std::optional<double> top;
            NodeConfig arg;
            for (std::size_t i = 0; i < n; ++i) {
                NodeConfig cfg = gridPoint(g, i, opts);
                EvalResult r = eval.evaluate(cfg, app);
                if (r.power.budgetPower() > budget)
                    continue;
                if (!top || r.perf.flops > *top) {
                    top = r.perf.flops;
                    arg = cfg;
                }
            }
            if (!top)
                return std::nullopt;
            const double benefit = (*top / base - 1.0) * 100.0;
            if (with_opt) {
                row.bestConfigOpt = arg;
                row.benefitWithOptPct = benefit;
            } else {
                row.bestConfig = arg;
                row.benefitNoOptPct = benefit;
            }
        }
        a.rows.push_back(row);
    }
    return a;
}

void
addConfig(Digest &d, const NodeConfig &c)
{
    d.add(c.cus).add(c.freqGhz).add(c.bwTbs);
}

std::uint64_t
answerDigest(const NodeConfig &best, const std::vector<TableIIRow> &rows)
{
    Digest d;
    addConfig(d, best);
    for (const TableIIRow &r : rows) {
        d.add(static_cast<int>(r.app));
        addConfig(d, r.bestConfig);
        d.add(r.benefitNoOptPct);
        addConfig(d, r.bestConfigOpt);
        d.add(r.benefitWithOptPct);
    }
    return d.value();
}

struct OpOutcome
{
    std::uint64_t digest = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoLookups = 0;
};

/**
 * One op: fresh explorer, findBestMean(no opts), tableII(best), under
 * a span named @p span_name. @p inner_spans adds the per-call spans
 * that feed core.dse_find_best_mean_ms / core.dse_table2_ms.
 */
OpOutcome
dseOp(const NodeEvaluator &eval, const DseGrid &grid, std::int64_t id,
      const char *span_name, bool inner_spans = true)
{
    Span op(span_name, id);
    DesignSpaceExplorer dse(eval, grid, cal::nodePowerBudgetW);
    NodeConfig best;
    {
        std::optional<Span> s;
        if (inner_spans)
            s.emplace("core.dse_find_best_mean", id);
        best = dse.findBestMean(PowerOptConfig::none());
    }
    std::vector<TableIIRow> rows;
    {
        std::optional<Span> s;
        if (inner_spans)
            s.emplace("core.dse_table2", id);
        rows = dse.tableII(best);
    }
    OpOutcome out;
    out.digest = answerDigest(best, rows);
    out.memoHits = dse.memoCache().hits();
    out.memoLookups = out.memoHits + dse.memoCache().misses();
    return out;
}

} // anonymous namespace

void
runDseTable2(const Options &opts, RunReport &report)
{
    const std::vector<DseGrid> grids = dseGrids(opts.seed);
    ThreadPool::global();
    const NodeEvaluator eval;

    // Oracle, outside the timed loop.
    std::vector<std::uint64_t> expect;
    Digest all;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        std::optional<DseAnswer> a = oracle(eval, grids[g]);
        if (!a) {
            report.fail("oracle: grid " + std::to_string(g) +
                        " has no feasible point");
            return;
        }
        if (g == 0 && a->bestMean.label() != NodeConfig::bestMean().label())
            report.fail("paper grid best mean is " + a->bestMean.label() +
                        ", expected 320cu@1.00GHz/3.0TBps");
        expect.push_back(answerDigest(a->bestMean, a->rows));
        all.add(expect.back());
    }
    report.digests["dse_answers"] = all.hex();

    auto op = [&](std::size_t i) {
        const std::size_t g = i % grids.size();
        ++report.attempted;
        if (dseOp(eval, grids[g], static_cast<std::int64_t>(i),
                  "dse_table2.op")
                .digest != expect[g]) {
            report.fail("op " + std::to_string(i) + " (grid " +
                        std::to_string(g) + ") differs from the oracle");
        }
    };

    measure(opts, report, 1,
            [&](double seconds, std::size_t min_ops,
                std::vector<double> &lat) {
                return timedLoop(seconds, min_ops, 1, op, lat);
            });
}

double
setUpDseTable2(Clock::time_point started)
{
    ThreadPool::global();
    NodeEvaluator eval;
    DesignSpaceExplorer first(eval, DseGrid::paperGrid(),
                              cal::nodePowerBudgetW);
    return secondsSince(started);
}

void
probeUtilCore(const Options &opts, RunReport &report)
{
    const std::size_t since = tracer::count();   // this probe's spans only
    const std::vector<DseGrid> grids = dseGrids(opts.seed);
    const DseGrid &paper = grids[0];
    NodeEvaluator eval;
    auto &L = report.layers;

    // util: pool dispatch of one grid's worth of trivial items.
    std::vector<double> slots(paper.size());
    for (int rep = 0; rep < 400; ++rep) {
        Span s("util.parallel_for");
        parallel_for(slots.size(),
                     [&](std::size_t i) { slots[i] = static_cast<double>(i); });
    }
    L["util.pool_dispatch_us"] =
        spanMedianNs("util.parallel_for", since) / 1e3;

    // core: scalar evaluate and evaluateBatchAll over the paper grid.
    const std::size_t n = paper.size();
    const std::size_t apps = allApps().size();
    NodeConfigBatch batch = NodeConfigBatch::fromAxes(
        NodeConfig{}, paper.cus, paper.freqsGhz, paper.bwsTbs);
    double sink = 0.0;
    for (int rep = 0; rep < 9; ++rep) {
        {
            Span s("core.evaluate", -1, n * apps);
            for (std::size_t i = 0; i < n; ++i) {
                NodeConfig cfg = batch.at(i);
                for (App app : allApps())
                    sink += eval.evaluate(cfg, app).perf.flops;
            }
        }
        {
            Span s("core.evaluate_batch_all", -1, n * apps);
            sink += eval.evaluateBatchAll(batch).geomeanFlops[0];
        }
        {
            DesignSpaceExplorer dse(eval, paper, cal::nodePowerBudgetW);
            Span s("core.dse_sweep");
            sink += dse.sweep(PowerOptConfig::none(), nullptr)[0]
                        .geomeanFlops;
        }
    }
    if (!(sink > 0.0))
        report.fail("probe: evaluation produced no flops");
    L["core.evaluate_ns"] = spanMedianNs("core.evaluate", since);
    L["core.evaluate_batch_ns"] =
        spanMedianNs("core.evaluate_batch_all", since);
    L["core.dse_sweep_ms"] = spanMedianNs("core.dse_sweep", since) / 1e6;

    // One op on the paper grid: its evaluation count and memo reuse.
    OpOutcome first = dseOp(eval, paper, -1, "probe.dse_op");
    const double lookups = static_cast<double>(first.memoLookups);
    L["core.dse_evals"] = lookups;
    L["core.memo_hit_ratio"] =
        lookups > 0.0 ? static_cast<double>(first.memoHits) / lookups : 0.0;

    // Pool speedup: the same ops on a one-thread pool, then pooled.
    const int reps = 2 * static_cast<int>(grids.size());
    ThreadPool::setGlobalThreads(1);
    for (int i = 0; i < reps; ++i) {
        dseOp(eval, grids[i % grids.size()], i, "probe.dse_op_serial",
              false);
    }
    ThreadPool::setGlobalThreads(0);
    for (int i = 0; i < reps; ++i)
        dseOp(eval, grids[i % grids.size()], i, "probe.dse_op_pooled");
    L["core.dse_pool_speedup"] =
        spanMedianNs("probe.dse_op_serial", since) /
        spanMedianNs("probe.dse_op_pooled", since);
    L["core.dse_find_best_mean_ms"] =
        spanMedianNs("core.dse_find_best_mean", since) / 1e6;
    L["core.dse_table2_ms"] = spanMedianNs("core.dse_table2", since) / 1e6;
}

} // namespace perfbench
