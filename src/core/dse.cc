#include "core/dse.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/calibration.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

telemetry::Counter &
configsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "dse.configs_evaluated",
        "grid points scored across all DSE sweeps and searches");
    return c;
}

telemetry::Counter &
failedCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "sweep.configs_failed",
        "grid points quarantined instead of evaluated");
    return c;
}

/**
 * Journal payload for one DsePoint. Doubles travel as hexfloats so a
 * resumed sweep reproduces the uninterrupted table bit-for-bit; the
 * config itself is not stored (the key pins index, label, and opts).
 */
std::string
encodeDsePoint(const DsePoint &p)
{
    std::ostringstream os;
    os << strformat("%a %a %a %d %d ", p.geomeanFlops,
                    p.meanBudgetPowerW, p.maxBudgetPowerW,
                    p.feasible ? 1 : 0, p.ok ? 1 : 0);
    os << p.error;
    return os.str();
}

bool
decodeDsePoint(const std::string &payload, DsePoint *p)
{
    std::istringstream is(payload);
    int feasible = 0, ok = 0;
    std::string g, m, x;
    if (!(is >> g >> m >> x >> feasible >> ok))
        return false;
    char *end = nullptr;
    p->geomeanFlops = std::strtod(g.c_str(), &end);
    if (end == g.c_str() || *end)
        return false;
    p->meanBudgetPowerW = std::strtod(m.c_str(), &end);
    if (end == m.c_str() || *end)
        return false;
    p->maxBudgetPowerW = std::strtod(x.c_str(), &end);
    if (end == x.c_str() || *end)
        return false;
    p->feasible = feasible != 0;
    p->ok = ok != 0;
    is.get();   // the separator before the (possibly empty) error text
    std::getline(is, p->error);
    return true;
}

/** Publish the configs/sec rate of the sweep that just finished. */
void
publishSweepRate(std::size_t n, double t0_us)
{
    if (!telemetry::metricsEnabled())
        return;
    double sec = (telemetry::nowUs() - t0_us) * 1e-6;
    if (sec > 0.0) {
        telemetry::gauge("dse.configs_per_sec",
                         "grid throughput of the most recent DSE sweep")
            .set(static_cast<double>(n) / sec);
    }
}

} // anonymous namespace

std::size_t
sweepChunkSize(std::size_t n, int threads)
{
    std::size_t per_thread =
        n / (static_cast<std::size_t>(threads) * 4);
    return std::clamp<std::size_t>(per_thread, 32, 4096);
}

DseGrid
DseGrid::paperGrid()
{
    DseGrid g;
    for (int c = 192; c <= cal::maxCusPerNode; c += 32)
        g.cus.push_back(c);
    g.freqsGhz = {0.7, 0.8, 0.9, 0.925, 1.0, 1.1,
                  1.2, 1.3, 1.4, 1.5};
    g.bwsTbs = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
    return g;
}

DesignSpaceExplorer::DesignSpaceExplorer(const NodeEvaluator &eval,
                                         DseGrid grid, double budget_w)
    : eval_(eval), grid_(std::move(grid)), budgetW_(budget_w)
{
    if (grid_.size() == 0)
        ENA_FATAL("empty DSE grid");
}

NodeConfig
DesignSpaceExplorer::configAt(std::size_t index,
                              const PowerOptConfig &opts) const
{
    // Row-major over (cus, freq, bw): the same enumeration order the
    // original serial triple loop used, so index-order reductions
    // reproduce its results exactly.
    const std::size_t nf = grid_.freqsGhz.size();
    const std::size_t nb = grid_.bwsTbs.size();
    NodeConfig cfg;
    cfg.cus = grid_.cus[index / (nf * nb)];
    cfg.freqGhz = grid_.freqsGhz[(index / nb) % nf];
    cfg.bwTbs = grid_.bwsTbs[index % nb];
    cfg.opts = opts;
    return cfg;
}

std::vector<DsePoint>
DesignSpaceExplorer::sweep(const PowerOptConfig &opts) const
{
    auto journal = SweepJournal::openFromEnvironment();
    return sweep(opts, journal.get());
}

std::vector<DsePoint>
DesignSpaceExplorer::sweep(const PowerOptConfig &opts,
                           SweepJournal *journal) const
{
    // Two phases. Phase 1 (serial, cheap): replay journaled points and
    // quarantine invalid configs, collecting the surviving indices.
    // Phase 2: batched evaluation of the survivors on the ThreadPool —
    // chunks become NodeConfigBatches. Workers fill their own slots and
    // all argmax reductions happen elsewhere in index order, so the
    // output is identical to the serial enumeration for any thread
    // count; with a journal every finished slot also streams to disk so
    // a killed run resumes instead of recomputing.
    ENA_SPAN("dse", "sweep");
    const double t0 = telemetry::nowUs();
    const std::size_t n = grid_.size();
    std::vector<DsePoint> points(n);
    std::vector<std::string> keys(journal ? n : 0);

    std::vector<std::size_t> todo;
    todo.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        DsePoint &p = points[i];
        p.cfg = configAt(i, opts);

        if (journal) {
            keys[i] = strformat("dse[%zu]:%s:o%d", i,
                                p.cfg.label().c_str(), powerOptBits(opts));
            std::string payload;
            if (journal->lookup(keys[i], &payload)) {
                DsePoint j = p;
                if (decodeDsePoint(payload, &j)) {
                    p = j;
                    continue;
                }
                warn("sweep journal: undecodable payload for '",
                     keys[i], "'; recomputing");
            }
        }

        Status valid = p.cfg.tryValidate();
        if (!valid.ok()) {
            p.ok = false;
            p.error = valid.toString();
            failedCounter().add();
            warn("DSE: quarantined grid point ", i, " (",
                 p.cfg.label(), "): ", p.error);
            if (journal)
                journal->append(keys[i], encodeDsePoint(p));
            continue;
        }
        todo.push_back(i);
    }

    if (!todo.empty()) {
        NodeConfig base;
        base.opts = opts;
        const std::size_t chunk =
            sweepChunkSize(todo.size(), ThreadPool::global().threads());
        const std::size_t num_chunks = (todo.size() + chunk - 1) / chunk;
        ThreadPool::global().parallelFor(num_chunks, [&](std::size_t c) {
            telemetry::ScopedSpan span("dse", "evaluate_batch");
            const std::size_t begin = c * chunk;
            const std::size_t end =
                std::min(begin + chunk, todo.size());

            NodeConfigBatch b;
            b.base = base;
            b.reserve(end - begin);
            for (std::size_t j = begin; j < end; ++j) {
                const NodeConfig &cfg = points[todo[j]].cfg;
                b.push(cfg.cus, cfg.freqGhz, cfg.bwTbs);
            }

            try {
                BatchAggregates agg = eval_.evaluateBatchAll(b);
                for (std::size_t j = begin; j < end; ++j) {
                    DsePoint &p = points[todo[j]];
                    p.geomeanFlops = agg.geomeanFlops[j - begin];
                    p.meanBudgetPowerW = agg.meanBudgetPowerW[j - begin];
                    p.maxBudgetPowerW = agg.maxBudgetPowerW[j - begin];
                    p.feasible = p.maxBudgetPowerW <= budgetW_;
                    if (journal)
                        journal->append(keys[todo[j]],
                                        encodeDsePoint(p));
                }
            } catch (const std::exception &) {
                // One bad point poisons a whole batch; fall back to
                // per-point scalar evaluation so only the offender is
                // quarantined (same scoring path as the oracle).
                for (std::size_t j = begin; j < end; ++j) {
                    DsePoint &p = points[todo[j]];
                    try {
                        p.geomeanFlops = eval_.geomeanFlops(p.cfg);
                        p.meanBudgetPowerW = eval_.meanBudgetPower(p.cfg);
                        p.maxBudgetPowerW = eval_.maxBudgetPower(p.cfg);
                        p.feasible = p.maxBudgetPowerW <= budgetW_;
                    } catch (const std::exception &e) {
                        std::size_t i = todo[j];
                        p = DsePoint{};
                        p.cfg = configAt(i, opts);
                        p.ok = false;
                        p.error = e.what();
                        failedCounter().add();
                        warn("DSE: quarantined grid point ", i, " (",
                             p.cfg.label(), "): ", p.error);
                    }
                    if (journal)
                        journal->append(keys[todo[j]],
                                        encodeDsePoint(p));
                }
            }
        });
    }

    configsCounter().add(n);
    publishSweepRate(n, t0);
    return points;
}

NodeConfig
DesignSpaceExplorer::findBestMean(const PowerOptConfig &opts) const
{
    // Score in parallel, pick the winner in index order on the caller
    // (same strict-greater tie-breaking as the old serial loop).
    ENA_SPAN("dse", "find_best_mean");
    std::vector<DsePoint> points = sweep(opts);
    const DsePoint *best = nullptr;
    for (const DsePoint &p : points) {
        if (!p.feasible)
            continue;
        if (!best || p.geomeanFlops > best->geomeanFlops)
            best = &p;
    }
    if (!best)
        ENA_FATAL("no feasible configuration under ", budgetW_,
                  " W budget");
    return best->cfg;
}

AppBest
DesignSpaceExplorer::findBestForApp(App app,
                                    const PowerOptConfig &opts) const
{
    telemetry::ScopedSpan span(
        "dse", std::string("find_best_for_app:") + appName(app));
    const std::size_t n = grid_.size();
    std::vector<double> flops(n), budget(n);

    NodeConfig base;
    base.opts = opts;
    const std::size_t chunk =
        sweepChunkSize(n, ThreadPool::global().threads());
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    ThreadPool::global().parallelFor(num_chunks, [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        NodeConfigBatch b;
        b.base = base;
        b.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
            NodeConfig cfg = configAt(i, opts);
            b.push(cfg.cus, cfg.freqGhz, cfg.bwTbs);
        }
        BatchEvalResult r = eval_.evaluateBatch(b, app);
        for (std::size_t i = begin; i < end; ++i) {
            flops[i] = r.flops[i - begin];
            budget[i] = r.budgetPowerW[i - begin];
        }
    });
    configsCounter().add(n);

    std::optional<AppBest> best;
    for (std::size_t i = 0; i < n; ++i) {
        if (budget[i] > budgetW_)
            continue;
        if (!best || flops[i] > best->flops) {
            best = AppBest{configAt(i, opts), flops[i], budget[i]};
        }
    }
    if (!best)
        ENA_FATAL("no feasible configuration for ", appName(app));
    return *best;
}

std::vector<TableIIRow>
DesignSpaceExplorer::tableII(const NodeConfig &best_mean) const
{
    // One task per application row; the nested findBestForApp sweeps
    // run inline on whichever thread owns the row.
    ENA_SPAN("dse", "table2");
    const std::vector<App> &apps = allApps();
    return ThreadPool::global().parallelMap(
        apps.size(), [&](std::size_t i) {
            App app = apps[i];
            telemetry::ScopedSpan span(
                "dse", std::string("table2_row:") + appName(app));
            TableIIRow row;
            row.app = app;

            double base = eval_.evaluate(best_mean, app).perf.flops;

            AppBest no_opt = findBestForApp(app, PowerOptConfig::none());
            row.bestConfig = no_opt.cfg;
            row.benefitNoOptPct = (no_opt.flops / base - 1.0) * 100.0;

            AppBest with_opt = findBestForApp(app, PowerOptConfig::all());
            row.bestConfigOpt = with_opt.cfg;
            row.benefitWithOptPct =
                (with_opt.flops / base - 1.0) * 100.0;

            return row;
        });
}

} // namespace ena
