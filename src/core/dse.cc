#include "core/dse.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/calibration.hh"
#include "core/perf_terms.hh"
#include "core/sweep_cell.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/stats_math.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

/** Grid points scored across all DSE sweeps and searches. */
telemetry::Counter &
configsCounter()
{
    static telemetry::Counter &c =
        telemetry::counter("dse.configs_evaluated");
    return c;
}

/**
 * Run @p fn(begin, end) over sweepChunkSize() chunks of [0, n) on the
 * pool. Each chunk writes only its own slots.
 */
template <typename Fn>
void
forEachChunk(std::size_t n, Fn &&fn)
{
    const std::size_t chunk =
        sweepChunkSize(n, ThreadPool::global().threads());
    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    ThreadPool::global().parallelFor(num_chunks, [&](std::size_t c) {
        telemetry::ScopedSpan span("dse", "score_chunk");
        const std::size_t begin = c * chunk;
        fn(begin, std::min(begin + chunk, n));
    });
}

} // anonymous namespace

std::size_t
sweepChunkSize(std::size_t n, int threads)
{
    std::size_t per_thread =
        n / (static_cast<std::size_t>(threads) * 4);
    return std::clamp<std::size_t>(per_thread, 32, 4096);
}

Expected<std::vector<double>>
trySweepValues(double from, double to, double step)
{
    if (!(step > 0.0) || !std::isfinite(from) || !std::isfinite(to) ||
        to < from)
        return Status::outOfRange("bad sweep range [", from, ", ", to,
                                  "] step ", step);
    std::vector<double> values;
    for (double v = from; v <= to + 1e-9; v += step) {
        if (values.size() == kMaxSweepPoints)
            return Status::outOfRange("sweep too large (more than ",
                                      kMaxSweepPoints, " points)");
        values.push_back(v);
    }
    return values;
}

Expected<std::vector<NodeConfig>>
trySweepConfigs(const NodeConfig &base, const std::string &axis,
                const std::vector<double> &values)
{
    if (axis != "cus" && axis != "freq" && axis != "bw") {
        return Status::invalidArgument("bad axis '", axis,
                                       "' (want cus | freq | bw)");
    }
    std::vector<NodeConfig> configs(values.size(), base);
    for (std::size_t i = 0; i < values.size(); ++i) {
        NodeConfig &cfg = configs[i];
        const double v = values[i];
        if (axis == "freq") {
            cfg.freqGhz = v;
        } else if (axis == "bw") {
            cfg.bwTbs = v;
        } else if (std::fabs(v) < 2147483648.0) {
            cfg.cus = static_cast<int>(v);
        } else {
            // Converting a double outside int's range is undefined.
            return Status::outOfRange("sweep point ", i, " (value ", v,
                                      "): not an int CU count");
        }
        ENA_TRY(cfg.tryValidate().withContext("sweep point ", i,
                                              " (value ", v, ")"));
    }
    return configs;
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

NodeConfig
DseGrid::at(std::size_t i, const PowerOptConfig &opts) const
{
    const std::size_t nf = freqsGhz.size();
    const std::size_t nb = bwsTbs.size();
    NodeConfig cfg;
    cfg.cus = cus[i / (nf * nb)];
    cfg.freqGhz = freqsGhz[(i / nb) % nf];
    cfg.bwTbs = bwsTbs[i % nb];
    cfg.opts = opts;
    return cfg;
}

DseGridScorer::DseGridScorer(const NodeEvaluator &eval,
                             const DseGrid &grid,
                             std::vector<PowerOptConfig> settings,
                             const std::vector<double> *flops)
    : grid_(grid), settings_(std::move(settings)), flops_(flops)
{
    const std::size_t nc = grid_.cus.size();
    const std::size_t nf = grid_.freqsGhz.size();
    const std::size_t nb = grid_.bwsTbs.size();

    // An axis value that fails validation gets no table entries (the
    // V/f curve would panic on a non-positive frequency); score() dies
    // on such points before it reads a table.
    auto valid = [this](int c, double f, double bw) {
        NodeConfig probe = base_;
        probe.cus = c;
        probe.freqGhz = f;
        probe.bwTbs = bw;
        return probe.tryValidate().ok();
    };
    for (int c : grid_.cus)
        cuOk_.push_back(valid(c, base_.freqGhz, base_.bwTbs));
    for (double f : grid_.freqsGhz)
        freqOk_.push_back(valid(base_.cus, f, base_.bwTbs));
    for (double bw : grid_.bwsTbs)
        bwOk_.push_back(valid(base_.cus, base_.freqGhz, bw));

    peak_.assign(nc * nf, 0.0);
    for (std::size_t ci = 0; ci < nc; ++ci) {
        for (std::size_t fi = 0; fi < nf; ++fi) {
            peak_[ci * nf + fi] =
                perf_terms::peakFlops(grid_.cus[ci], grid_.freqsGhz[fi]);
        }
    }

    const std::vector<App> &apps = allApps();
    const std::size_t na = apps.size();
    for (App app : apps)
        profiles_.push_back(&profileFor(app));
    ENA_ASSERT(!flops_ || flops_->size() == grid_.size() * na,
               "flops table of the wrong shape");

    const VfCurve &vf_curve = eval.powerModel().vfCurve();
    vf_.assign(settings_.size() * nf, {});
    for (std::size_t s = 0; s < settings_.size(); ++s) {
        for (std::size_t fi = 0; fi < nf; ++fi) {
            if (freqOk_[fi]) {
                vf_[s * nf + fi] = power_terms::vfScales(
                    vf_curve, grid_.freqsGhz[fi], settings_[s].ntc);
            }
        }
    }
    hbmStaticW_.assign(nb, 0.0);
    for (std::size_t bi = 0; bi < nb; ++bi) {
        if (bwOk_[bi]) {
            hbmStaticW_[bi] = power_terms::hbmStaticW(grid_.bwsTbs[bi],
                                                      base_.gpuChiplets);
        }
    }
    extStatic_ = power_terms::extStaticW(base_.ext);

    // The performance terms; a scorer given flops prices only power.
    if (flops_)
        return;
    computeRate_.assign(na * nc * nf, 0.0);
    powCompute_.assign(na * nc * nf, 0.0);
    usableGbs_.assign(na * nb, 0.0);
    std::vector<double> cu_scale(nc), f_scale(nf);
    for (std::size_t a = 0; a < na; ++a) {
        const KernelProfile &k = *profiles_[a];
        for (std::size_t ci = 0; ci < nc; ++ci) {
            if (cuOk_[ci])
                cu_scale[ci] = perf_terms::cuScale(grid_.cus[ci], k);
        }
        for (std::size_t fi = 0; fi < nf; ++fi) {
            if (freqOk_[fi])
                f_scale[fi] = perf_terms::freqScale(grid_.freqsGhz[fi], k);
        }
        for (std::size_t ci = 0; ci < nc; ++ci) {
            for (std::size_t fi = 0; fi < nf; ++fi) {
                if (!cuOk_[ci] || !freqOk_[fi])
                    continue;
                const std::size_t cf = (a * nc + ci) * nf + fi;
                computeRate_[cf] = perf_terms::computeRate(
                    peak_[ci * nf + fi], k, cu_scale[ci], f_scale[fi]);
                powCompute_[cf] = perf_terms::rooflinePow(computeRate_[cf]);
            }
        }
        for (std::size_t bi = 0; bi < nb; ++bi) {
            if (bwOk_[bi]) {
                usableGbs_[a * nb + bi] =
                    perf_terms::usableBandwidthGbs(grid_.bwsTbs[bi], k);
            }
        }
    }
}

void
DseGridScorer::score(std::span<const std::size_t> indices,
                     GridScores &out) const
{
    const std::size_t nc = grid_.cus.size();
    const std::size_t nf = grid_.freqsGhz.size();
    const std::size_t nb = grid_.bwsTbs.size();
    const std::size_t na = profiles_.size();
    if (!flops_) {
        // (config, application) pairs, as NodeEvaluator counts them.
        static telemetry::Counter &evals =
            telemetry::counter("node.evaluations");
        evals.add(indices.size() * na);
    }

    for (std::size_t i : indices) {
        const std::size_t ci = i / (nf * nb);
        const std::size_t fi = (i / nb) % nf;
        const std::size_t bi = i % nb;
        if (!cuOk_[ci] || !freqOk_[fi] || !bwOk_[bi])
            grid_.at(i, PowerOptConfig::none()).validate();
        const int cus = grid_.cus[ci];
        const double f = grid_.freqsGhz[fi];
        const double bw = grid_.bwsTbs[bi];
        const double peak = peak_[ci * nf + fi];

        for (std::size_t a = 0; a < na; ++a) {
            const KernelProfile &k = *profiles_[a];
            PerfResult perf;   // power reads only its flops and activity
            if (flops_) {
                perf.flops = (*flops_)[a * grid_.size() + i];
                perf.activity =
                    perf_terms::makeActivity(bw, k, perf.flops, peak);
            } else {
                const std::size_t cf = (a * nc + ci) * nf + fi;
                perf = perf_terms::evaluatePerfPre(
                    cus, f, bw, k, peak, computeRate_[cf], powCompute_[cf],
                    usableGbs_[a * nb + bi]);
            }
            out.flops(a, i) = perf.flops;
            for (std::size_t s = 0; s < settings_.size(); ++s) {
                PowerBreakdown power = power_terms::evaluatePower(
                    cus, f, settings_[s], base_.ext, perf.activity,
                    vf_[s * nf + fi], hbmStaticW_[bi], extStatic_);
                out.budgetPowerW(s, a, i) = power.budgetPower();
            }
        }
    }
}

DesignSpaceExplorer::DesignSpaceExplorer(const NodeEvaluator &eval,
                                         DseGrid grid, double budget_w)
    : eval_(eval), grid_(std::move(grid)), budgetW_(budget_w)
{
    if (grid_.size() == 0)
        ENA_FATAL("empty DSE grid");
}

template <typename Fold>
GridScores
DesignSpaceExplorer::price(std::vector<PowerOptConfig> settings,
                           const std::vector<std::size_t> &points,
                           Fold &&fold) const
{
    // No lock is held while pricing, so a pass that throws keeps
    // nothing and a search inside a pool task cannot deadlock; racing
    // first searches each price flops, and the first to finish keeps.
    const bool kept = haveFlops_.load(std::memory_order_acquire);
    const DseGridScorer scorer(eval_, grid_, std::move(settings),
                               kept ? &flops_ : nullptr);
    GridScores scores = scorer.makeScores();
    forEachChunk(points.size(), [&](std::size_t begin, std::size_t end) {
        const std::span<const std::size_t> chunk(points.data() + begin,
                                                 end - begin);
        scorer.score(chunk, scores);
        fold(scores, chunk);
    });
    if (!kept) {
        std::lock_guard<std::mutex> lock(flopsMutex_);
        if (!haveFlops_.load(std::memory_order_relaxed)) {
            flops_ = scores.flopsTable();
            haveFlops_.store(true, std::memory_order_release);
        }
    }
    return scores;
}

GridScores
DesignSpaceExplorer::priceGrid(std::vector<PowerOptConfig> settings) const
{
    std::vector<std::size_t> indices(grid_.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    GridScores scores =
        price(std::move(settings), indices, [](auto &&...) {});
    configsCounter().add(grid_.size());
    return scores;
}

AppBest
DesignSpaceExplorer::bestFeasible(const GridScores &scores,
                                  std::size_t app_pos,
                                  std::size_t setting_pos, App app,
                                  const PowerOptConfig &opts) const
{
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < grid_.size(); ++i) {
        if (scores.budgetPowerW(setting_pos, app_pos, i) > budgetW_)
            continue;
        if (!best || scores.flops(app_pos, i) > scores.flops(app_pos, *best))
            best = i;
    }
    if (!best)
        ENA_FATAL("no feasible configuration for ", appName(app));
    return AppBest{grid_.at(*best, opts), scores.flops(app_pos, *best),
                   scores.budgetPowerW(setting_pos, app_pos, *best)};
}

std::vector<DsePoint>
DesignSpaceExplorer::sweep(const PowerOptConfig &opts, std::nullptr_t) const
{
    // Two phases. Phase 1 (serial, cheap): quarantine invalid configs,
    // collecting the valid indices. Phase 2: those are scored in pool
    // chunks and folded into their own slots, so the output is
    // identical to the serial enumeration for any thread count.
    ENA_SPAN("dse", "sweep");
    const std::size_t n = grid_.size();
    std::vector<DsePoint> points(n);

    std::vector<std::size_t> valid;
    valid.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        DsePoint &p = points[i];
        p.cfg = grid_.at(i, opts);
        Status status = p.cfg.tryValidate();
        if (status.ok()) {
            valid.push_back(i);
        } else {
            quarantineCell(p, status.toString(),
                           "DSE: quarantined grid point ", i, " (",
                           p.cfg.label(), ")");
        }
    }

    if (!valid.empty()) {
        // Fold exactly as the scalar helpers do: geomean and mean over
        // allApps() order, max from 0.0.
        price({opts}, valid, [&](const GridScores &scores,
                                 std::span<const std::size_t> chunk) {
            std::vector<double> tmp(allApps().size());
            for (std::size_t i : chunk) {
                DsePoint &p = points[i];
                for (std::size_t a = 0; a < tmp.size(); ++a)
                    tmp[a] = scores.flops(a, i);
                p.geomeanFlops = geomean(tmp);
                for (std::size_t a = 0; a < tmp.size(); ++a)
                    tmp[a] = scores.budgetPowerW(0, a, i);
                p.meanBudgetPowerW = mean(tmp);
                double worst = 0.0;
                for (double w : tmp)
                    worst = std::max(worst, w);
                p.maxBudgetPowerW = worst;
                p.feasible = p.maxBudgetPowerW <= budgetW_;
            }
        });
    }

    configsCounter().add(n);
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
    const std::vector<App> &apps = allApps();
    const std::size_t pos =
        std::find(apps.begin(), apps.end(), app) - apps.begin();
    return bestFeasible(priceGrid({opts}), pos, 0, app, opts);
}

std::vector<TableIIRow>
DesignSpaceExplorer::tableII(const NodeConfig &best_mean) const
{
    // Performance does not depend on the power optimizations, so one
    // pass prices every (point, app) under both settings; the
    // per-(app, setting) argmaxes then run on the caller.
    ENA_SPAN("dse", "table2");
    const std::vector<App> &apps = allApps();
    const PowerOptConfig none = PowerOptConfig::none();
    const PowerOptConfig all = PowerOptConfig::all();
    const GridScores scores = priceGrid({none, all});

    std::vector<TableIIRow> rows;
    rows.reserve(apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a) {
        TableIIRow row;
        row.app = apps[a];

        double base = eval_.evaluate(best_mean, row.app).perf.flops;

        AppBest no_opt = bestFeasible(scores, a, 0, row.app, none);
        row.bestConfig = no_opt.cfg;
        row.benefitNoOptPct = (no_opt.flops / base - 1.0) * 100.0;

        AppBest with_opt = bestFeasible(scores, a, 1, row.app, all);
        row.bestConfigOpt = with_opt.cfg;
        row.benefitWithOptPct = (with_opt.flops / base - 1.0) * 100.0;

        rows.push_back(row);
    }
    return rows;
}

} // namespace ena
