/**
 * @file
 * Tests of the design-space explorer mechanics (correctness of the
 * search itself; the paper-anchored outcomes live in
 * test_calibration.cc).
 */

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dse.hh"
#include "telemetry/metrics.hh"
#include "util/rng.hh"
#include "util/stats_math.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

DseGrid
tinyGrid()
{
    DseGrid g;
    g.cus = {256, 320};
    g.freqsGhz = {0.9, 1.0};
    g.bwsTbs = {2.0, 3.0};
    return g;
}

/** Grid point @p i in the explorer's row-major (cus, freq, bw) order. */
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

/** @p count distinct integers from [lo, hi], ascending. */
std::vector<int>
distinctDraws(Rng &r, int lo, int hi, std::size_t count)
{
    std::set<int> picked;
    while (picked.size() < count)
        picked.insert(static_cast<int>(r.range(lo, hi)));
    return {picked.begin(), picked.end()};
}

/**
 * A seeded 7x10x7 grid drawn from the paper's ranges the way the
 * repository benchmark draws its grids: 192 CUs plus 6 distinct counts
 * up to 384, 0.7 GHz plus 9 distinct 5 MHz steps up to 1.5 GHz, 1 TB/s
 * plus 6 distinct 0.25 TB/s steps up to 7 TB/s.
 */
DseGrid
randomPaperRangeGrid(std::uint64_t seed)
{
    Rng r(seed);
    DseGrid g;
    g.cus.push_back(192);
    for (int c : distinctDraws(r, 193, 384, 6))
        g.cus.push_back(c);
    g.freqsGhz.push_back(0.7);
    for (int k : distinctDraws(r, 141, 300, 9))
        g.freqsGhz.push_back(k * 5 / 1000.0);
    g.bwsTbs.push_back(1.0);
    for (int k : distinctDraws(r, 5, 28, 6))
        g.bwsTbs.push_back(k * 0.25);
    return g;
}

/** @p g with one value repeated on every axis and each axis shuffled. */
DseGrid
shuffledWithRepeats(DseGrid g, std::uint64_t seed)
{
    Rng r(seed);
    auto shuffle = [&r](auto &axis) {
        for (std::size_t i = axis.size() - 1; i > 0; --i)
            std::swap(axis[i], axis[r.below(i + 1)]);
    };
    g.cus.push_back(g.cus[2]);
    g.freqsGhz.push_back(g.freqsGhz[3]);
    g.bwsTbs.push_back(g.bwsTbs[1]);
    shuffle(g.cus);
    shuffle(g.freqsGhz);
    shuffle(g.bwsTbs);
    return g;
}

/** Grids every explorer/oracle comparison runs on. */
std::vector<DseGrid>
oracleGrids()
{
    return {tinyGrid(), DseGrid::paperGrid(), randomPaperRangeGrid(1),
            randomPaperRangeGrid(2), randomPaperRangeGrid(3)};
}

/** Serial scalar argmax of one app's flops under the budget. */
std::optional<AppBest>
scalarBestForApp(const DseGrid &g, App app, const PowerOptConfig &opts,
                 double budget)
{
    std::optional<AppBest> best;
    for (std::size_t i = 0; i < g.size(); ++i) {
        NodeConfig cfg = gridPoint(g, i, opts);
        EvalResult r = evaluator().evaluate(cfg, app);
        if (r.power.budgetPower() > budget)
            continue;
        if (!best || r.perf.flops > best->flops)
            best = AppBest{cfg, r.perf.flops, r.power.budgetPower()};
    }
    return best;
}

/** tableII(best_mean) as serial argmaxes over evaluate(). */
std::vector<TableIIRow>
scalarTableIIRows(const DseGrid &g, const NodeConfig &best_mean,
                  double budget)
{
    std::vector<TableIIRow> rows;
    for (App app : allApps()) {
        TableIIRow row;
        row.app = app;
        const double base = evaluator().evaluate(best_mean, app).perf.flops;
        for (bool with_opt : {false, true}) {
            PowerOptConfig opts =
                with_opt ? PowerOptConfig::all() : PowerOptConfig::none();
            std::optional<AppBest> top =
                scalarBestForApp(g, app, opts, budget);
            EXPECT_TRUE(top.has_value()) << appName(app);
            const AppBest best = top.value_or(AppBest{});
            const double benefit = (best.flops / base - 1.0) * 100.0;
            (with_opt ? row.bestConfigOpt : row.bestConfig) = best.cfg;
            (with_opt ? row.benefitWithOptPct : row.benefitNoOptPct) =
                benefit;
        }
        rows.push_back(row);
    }
    return rows;
}

/** findBestMean(none) + tableII as a serial argmax over evaluate(). */
struct ScalarAnswer
{
    NodeConfig bestMean;
    std::vector<TableIIRow> rows;
};

ScalarAnswer
scalarTableII(const DseGrid &g, double budget)
{
    ScalarAnswer a;
    std::optional<double> best;
    for (std::size_t i = 0; i < g.size(); ++i) {
        NodeConfig cfg = gridPoint(g, i, PowerOptConfig::none());
        if (evaluator().maxBudgetPower(cfg) > budget)
            continue;
        double gm = evaluator().geomeanFlops(cfg);
        if (!best || gm > *best) {
            best = gm;
            a.bestMean = cfg;
        }
    }
    EXPECT_TRUE(best.has_value()) << "no feasible best-mean point";
    a.rows = scalarTableIIRows(g, a.bestMean, budget);
    return a;
}

/** sweep(opts) as a serial fold over evaluate(). */
std::vector<DsePoint>
scalarSweep(const DseGrid &g, const PowerOptConfig &opts, double budget)
{
    std::vector<DsePoint> points(g.size());
    std::vector<double> flops(allApps().size());
    std::vector<double> power(allApps().size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        DsePoint &p = points[i];
        p.cfg = gridPoint(g, i, opts);
        for (std::size_t a = 0; a < allApps().size(); ++a) {
            EvalResult r = evaluator().evaluate(p.cfg, allApps()[a]);
            flops[a] = r.perf.flops;
            power[a] = r.power.budgetPower();
        }
        p.geomeanFlops = geomean(flops);
        p.meanBudgetPowerW = mean(power);
        for (double w : power)
            p.maxBudgetPowerW = std::max(p.maxBudgetPowerW, w);
        p.feasible = p.maxBudgetPowerW <= budget;
    }
    return points;
}

/** Every double of a search result in hex: equal text, equal bits. */
std::string
exactConfig(const NodeConfig &c)
{
    std::ostringstream os;
    os << std::hexfloat << c.cus << ' ' << c.freqGhz << ' ' << c.bwTbs
       << ' ' << powerOptBits(c.opts) << ';';
    return os.str();
}

std::string
exactPoints(const std::vector<DsePoint> &points)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const DsePoint &p : points) {
        os << exactConfig(p.cfg) << p.geomeanFlops << ' '
           << p.meanBudgetPowerW << ' ' << p.maxBudgetPowerW << ' '
           << p.feasible << ' ' << p.ok << '\n';
    }
    return os.str();
}

std::string
exactBests(const std::vector<AppBest> &bests)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const AppBest &b : bests)
        os << exactConfig(b.cfg) << b.flops << ' ' << b.budgetPowerW << '\n';
    return os.str();
}

std::string
exactRows(const std::vector<TableIIRow> &rows)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const TableIIRow &r : rows) {
        os << appName(r.app) << ' ' << exactConfig(r.bestConfig)
           << r.benefitNoOptPct << ' ' << exactConfig(r.bestConfigOpt)
           << r.benefitWithOptPct << '\n';
    }
    return os.str();
}

/** The searches the reuse tests mix, by name; "(all)" means all opts. */
const std::vector<std::string> &
searchNames()
{
    static const std::vector<std::string> names = {
        "sweep(none)",          "sweep(all)",
        "findBestMean(none)",   "findBestMean(all)",
        "findBestForApp(none)", "findBestForApp(all)",
        "tableII"};
    return names;
}

PowerOptConfig
searchOpts(const std::string &name)
{
    return name.ends_with("(all)") ? PowerOptConfig::all()
                                   : PowerOptConfig::none();
}

/** Search @p name on @p dse, printed exactly. */
std::string
explorerSearch(const DesignSpaceExplorer &dse, const std::string &name,
               const NodeConfig &best_mean)
{
    const PowerOptConfig opts = searchOpts(name);
    if (name.starts_with("sweep"))
        return exactPoints(dse.sweep(opts));
    if (name.starts_with("findBestMean"))
        return exactConfig(dse.findBestMean(opts));
    if (name.starts_with("findBestForApp")) {
        std::vector<AppBest> bests;
        for (App app : allApps())
            bests.push_back(dse.findBestForApp(app, opts));
        return exactBests(bests);
    }
    return exactRows(dse.tableII(best_mean));
}

/** The same search as serial scalar argmaxes and folds. */
std::string
scalarSearch(const DseGrid &g, const std::string &name,
             const NodeConfig &best_mean, double budget)
{
    const PowerOptConfig opts = searchOpts(name);
    if (name.starts_with("sweep"))
        return exactPoints(scalarSweep(g, opts, budget));
    if (name.starts_with("findBestMean")) {
        const DsePoint *best = nullptr;
        const std::vector<DsePoint> points = scalarSweep(g, opts, budget);
        for (const DsePoint &p : points) {
            if (p.feasible && (!best || p.geomeanFlops > best->geomeanFlops))
                best = &p;
        }
        EXPECT_NE(best, nullptr) << name;
        return best ? exactConfig(best->cfg) : "";
    }
    if (name.starts_with("findBestForApp")) {
        std::vector<AppBest> bests;
        for (App app : allApps()) {
            bests.push_back(scalarBestForApp(g, app, opts, budget)
                                .value_or(AppBest{}));
        }
        return exactBests(bests);
    }
    return exactRows(scalarTableIIRows(g, best_mean, budget));
}

void
expectSameConfig(const NodeConfig &a, const NodeConfig &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cus, b.cus) << what;
    EXPECT_EQ(a.freqGhz, b.freqGhz) << what;
    EXPECT_EQ(a.bwTbs, b.bwTbs) << what;
    EXPECT_EQ(powerOptBits(a.opts), powerOptBits(b.opts)) << what;
}

} // anonymous namespace

TEST(DseGrid, PaperGridSize)
{
    DseGrid g = DseGrid::paperGrid();
    EXPECT_EQ(g.cus.size(), 7u);         // 192..384 step 32
    EXPECT_EQ(g.freqsGhz.size(), 10u);   // 0.7..1.5 + 925 MHz
    EXPECT_EQ(g.bwsTbs.size(), 7u);      // 1..7
    EXPECT_EQ(g.size(), 490u);
    // The 925 MHz point from Table II is present.
    bool has925 = false;
    for (double f : g.freqsGhz)
        has925 |= f == 0.925;
    EXPECT_TRUE(has925);
}

TEST(Dse, SweepEnumeratesWholeGrid)
{
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 160.0);
    auto points = dse.sweep(PowerOptConfig::none());
    EXPECT_EQ(points.size(), 8u);
    for (const DsePoint &p : points) {
        EXPECT_GT(p.geomeanFlops, 0.0);
        EXPECT_GT(p.meanBudgetPowerW, 0.0);
        EXPECT_GE(p.maxBudgetPowerW, p.meanBudgetPowerW);
        EXPECT_EQ(p.feasible, p.maxBudgetPowerW <= 160.0);
    }
}

TEST(Dse, BestMeanIsTheFeasibleArgmax)
{
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 160.0);
    NodeConfig best = dse.findBestMean(PowerOptConfig::none());
    double best_perf = evaluator().geomeanFlops(best);
    for (const DsePoint &p : dse.sweep(PowerOptConfig::none())) {
        if (p.feasible) {
            EXPECT_LE(p.geomeanFlops, best_perf + 1e-6);
        }
    }
}

TEST(Dse, BestForAppRespectsBudget)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    for (App app : {App::CoMD, App::LULESH, App::MaxFlops}) {
        AppBest best = dse.findBestForApp(app, PowerOptConfig::none());
        EXPECT_LE(best.budgetPowerW, 160.0);
        EXPECT_GT(best.flops, 0.0);
    }
}

TEST(Dse, BestForAppBeatsBestMeanForThatApp)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    NodeConfig best_mean = dse.findBestMean(PowerOptConfig::none());
    for (App app : allApps()) {
        AppBest best = dse.findBestForApp(app, PowerOptConfig::none());
        double mean_perf =
            evaluator().evaluate(best_mean, app).perf.flops;
        EXPECT_GE(best.flops, mean_perf - 1e-6) << appName(app);
    }
}

TEST(Dse, TighterBudgetNeverImprovesPerformance)
{
    DesignSpaceExplorer loose(evaluator(), tinyGrid(), 200.0);
    DesignSpaceExplorer tight(evaluator(), tinyGrid(), 150.0);
    double p_loose = evaluator().geomeanFlops(
        loose.findBestMean(PowerOptConfig::none()));
    double p_tight = evaluator().geomeanFlops(
        tight.findBestMean(PowerOptConfig::none()));
    EXPECT_GE(p_loose, p_tight - 1e-6);
}

TEST(Dse, OptimizationsEnlargeTheFeasibleSet)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    auto count = [&](const PowerOptConfig &opts) {
        int n = 0;
        for (const DsePoint &p : dse.sweep(opts)) {
            if (p.feasible)
                ++n;
        }
        return n;
    };
    EXPECT_GT(count(PowerOptConfig::all()),
              count(PowerOptConfig::none()));
}

TEST(Dse, TableIIRowsCoverEveryApp)
{
    DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
    auto rows = dse.tableII(NodeConfig::bestMean());
    ASSERT_EQ(rows.size(), allApps().size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].app, allApps()[i]);
        rows[i].bestConfig.validate();
        rows[i].bestConfigOpt.validate();
    }
}

TEST(DseGridScorer, ScoresEqualTheScalarEvaluatorBitForBit)
{
    // Every setting the tables are built for: none, all, and each
    // optimization alone (ntc is the one that changes the V/f scales).
    std::vector<PowerOptConfig> settings = {PowerOptConfig::none(),
                                            PowerOptConfig::all()};
    for (bool PowerOptConfig::*knob :
         {&PowerOptConfig::ntc, &PowerOptConfig::asyncCu,
          &PowerOptConfig::asyncRouter, &PowerOptConfig::lpLinks,
          &PowerOptConfig::compression}) {
        PowerOptConfig one;
        one.*knob = true;
        settings.push_back(one);
    }

    std::vector<DseGrid> grids = {DseGrid::paperGrid()};
    for (std::uint64_t seed : {1, 2, 3}) {
        grids.push_back(
            shuffledWithRepeats(randomPaperRangeGrid(seed), seed));
    }

    const std::vector<App> &apps = allApps();
    for (const DseGrid &grid : grids) {
        DseGridScorer scorer(evaluator(), grid, settings);
        GridScores scores = scorer.makeScores();
        std::vector<std::size_t> indices(grid.size());
        for (std::size_t i = 0; i < indices.size(); ++i)
            indices[i] = i;
        scorer.score(indices, scores);
        // The power-only pass, from the flops the first pass priced.
        DseGridScorer power_only(evaluator(), grid, settings,
                                 &scores.flopsTable());
        GridScores repriced = power_only.makeScores();
        power_only.score(indices, repriced);

        std::size_t mismatches = 0;
        std::string first;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            for (std::size_t a = 0; a < apps.size(); ++a) {
                for (std::size_t s = 0; s < settings.size(); ++s) {
                    NodeConfig cfg = gridPoint(grid, i, settings[s]);
                    EvalResult want = evaluator().evaluate(cfg, apps[a]);
                    if (scores.flops(a, i) == want.perf.flops &&
                        scores.budgetPowerW(s, a, i) ==
                            want.power.budgetPower() &&
                        repriced.flops(a, i) == want.perf.flops &&
                        repriced.budgetPowerW(s, a, i) ==
                            want.power.budgetPower())
                        continue;
                    if (mismatches++ == 0) {
                        first = cfg.label() + " " + appName(apps[a]) +
                                " opts " +
                                std::to_string(powerOptBits(settings[s]));
                    }
                }
            }
        }
        EXPECT_EQ(mismatches, 0u)
            << grid.size() << "-point grid, first at " << first;
    }
}

TEST(Dse, SweepValuesAccumulateTheStepUpToTheCap)
{
    // sweep_tool's value column: repeated addition, not from + i * step.
    Expected<std::vector<double>> v = trySweepValues(0.7, 1.5, 0.1);
    ASSERT_TRUE(v.ok()) << v.status().toString();
    std::vector<double> want;
    for (double x = 0.7; x <= 1.5 + 1e-9; x += 0.1)
        want.push_back(x);
    EXPECT_EQ(*v, want);

    // Exactly kMaxSweepPoints values pass; one more does not.
    const double cap = static_cast<double>(kMaxSweepPoints);
    Expected<std::vector<double>> full = trySweepValues(1.0, cap, 1.0);
    ASSERT_TRUE(full.ok()) << full.status().toString();
    EXPECT_EQ(full->size(), kMaxSweepPoints);
    Expected<std::vector<double>> over = trySweepValues(0.0, cap, 1.0);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), ErrorCode::OutOfRange);

    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double bad[][3] = {{2, 1, 0.5}, {1, 2, 0},   {1, 2, -1},
                             {1, 2, nan}, {nan, 2, 1}, {1, inf, 1},
                             {-inf, 1, 1}};
    for (const auto &[from, to, step] : bad) {
        EXPECT_EQ(trySweepValues(from, to, step).status().code(),
                  ErrorCode::OutOfRange)
            << from << " " << to << " " << step;
    }
}

TEST(Dse, SweepConfigsSetOneKnobAndReportTheFirstBadPoint)
{
    NodeConfig base = NodeConfig::bestMean();
    base.opts = PowerOptConfig::all();

    // Only the swept knob moves; a CU value is truncated, as sweep_tool
    // always did.
    Expected<std::vector<NodeConfig>> cus =
        trySweepConfigs(base, "cus", {64.9, 128.0});
    ASSERT_TRUE(cus.ok()) << cus.status().toString();
    ASSERT_EQ(cus->size(), 2u);
    EXPECT_EQ((*cus)[0].label(), "64cu@1.00GHz/3.0TBps");
    EXPECT_EQ((*cus)[1].label(), "128cu@1.00GHz/3.0TBps");
    EXPECT_EQ(powerOptBits((*cus)[1].opts), powerOptBits(base.opts));
    Expected<std::vector<NodeConfig>> freq =
        trySweepConfigs(base, "freq", {1.25});
    ASSERT_TRUE(freq.ok()) << freq.status().toString();
    EXPECT_EQ((*freq)[0].label(), "320cu@1.25GHz/3.0TBps");
    Expected<std::vector<NodeConfig>> bw =
        trySweepConfigs(base, "bw", {6.5});
    ASSERT_TRUE(bw.ok()) << bw.status().toString();
    EXPECT_EQ((*bw)[0].label(), "320cu@1.00GHz/6.5TBps");

    Expected<std::vector<NodeConfig>> axis =
        trySweepConfigs(base, "volts", {1.0});
    EXPECT_EQ(axis.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(axis.status().message(),
              "bad axis 'volts' (want cus | freq | bw)");

    // The first point that fails validation is the error.
    Expected<std::vector<NodeConfig>> bad =
        trySweepConfigs(base, "cus", {0.0, 1.0, -3.0});
    EXPECT_EQ(bad.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(bad.status().message(),
              "sweep point 0 (value 0): NodeConfig: bad CU count 0");
    bad = trySweepConfigs(base, "freq", {1.0, 20.0});
    EXPECT_EQ(bad.status().message(),
              "sweep point 1 (value 20): NodeConfig: bad GPU frequency "
              "20 GHz");

    // A CU value outside int is refused, not converted.
    bad = trySweepConfigs(base, "cus", {1e20});
    EXPECT_EQ(bad.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(bad.status().message(),
              "sweep point 0 (value 1e+20): not an int CU count");
}

TEST(Dse, GridAtEnumeratesRowMajor)
{
    const DseGrid g = shuffledWithRepeats(randomPaperRangeGrid(7), 7);
    for (std::size_t i = 0; i < g.size(); ++i) {
        NodeConfig got = g.at(i, PowerOptConfig::all());
        NodeConfig want = gridPoint(g, i, PowerOptConfig::all());
        EXPECT_EQ(got.cus, want.cus);
        EXPECT_EQ(got.freqGhz, want.freqGhz);
        EXPECT_EQ(got.bwTbs, want.bwTbs);
        EXPECT_EQ(powerOptBits(got.opts), powerOptBits(want.opts));
    }
}

TEST(Dse, FindBestForAppMatchesScalarArgmax)
{
    for (const DseGrid &grid : oracleGrids()) {
        for (int threads : {1, 4}) {
            ThreadPool::setGlobalThreads(threads);
            DesignSpaceExplorer dse(evaluator(), grid, 160.0);
            for (App app : allApps()) {
                for (const PowerOptConfig &opts :
                     {PowerOptConfig::none(), PowerOptConfig::all()}) {
                    const std::string at =
                        appName(app) + " opts " +
                        std::to_string(powerOptBits(opts)) + ", " +
                        std::to_string(grid.size()) + "-point grid, " +
                        std::to_string(threads) + " thread(s)";
                    std::optional<AppBest> want =
                        scalarBestForApp(grid, app, opts, 160.0);
                    ASSERT_TRUE(want.has_value()) << at;
                    AppBest got = dse.findBestForApp(app, opts);
                    expectSameConfig(got.cfg, want->cfg, at);
                    EXPECT_EQ(got.flops, want->flops) << at;
                    EXPECT_EQ(got.budgetPowerW, want->budgetPowerW) << at;
                }
            }
            ThreadPool::setGlobalThreads(0);
        }
    }
}

TEST(Dse, TiesGoToTheLowestGridIndex)
{
    // Bandwidth beyond a kernel's maxBandwidthTbs cannot be consumed,
    // so both grid bandwidths give the capped kernels bit-equal flops.
    // Both points fit the budget; the argmax's strict '>' keeps index
    // 0, where '>=' would move every capped kernel to index 1.
    const DseGrid g{{320}, {1.0}, {4.0, 5.0}};
    const double budget = 1000.0;
    DesignSpaceExplorer dse(evaluator(), g, budget);
    std::vector<TableIIRow> rows = dse.tableII(NodeConfig::bestMean());
    ASSERT_EQ(rows.size(), allApps().size());

    int capped = 0;
    for (std::size_t a = 0; a < allApps().size(); ++a) {
        const App app = allApps()[a];
        if (profileFor(app).maxBandwidthTbs >= g.bwsTbs[0])
            continue;
        ++capped;
        for (const PowerOptConfig &opts :
             {PowerOptConfig::none(), PowerOptConfig::all()}) {
            EvalResult lo = evaluator().evaluate(g.at(0, opts), app);
            EvalResult hi = evaluator().evaluate(g.at(1, opts), app);
            ASSERT_EQ(lo.perf.flops, hi.perf.flops) << appName(app);
            ASSERT_LE(hi.power.budgetPower(), budget) << appName(app);
            ASSERT_LE(lo.power.budgetPower(), budget) << appName(app);
            EXPECT_EQ(dse.findBestForApp(app, opts).cfg.bwTbs, 4.0)
                << appName(app) << " opts " << powerOptBits(opts);
        }
        EXPECT_EQ(rows[a].bestConfig.bwTbs, 4.0) << appName(app);
        EXPECT_EQ(rows[a].bestConfigOpt.bwTbs, 4.0) << appName(app);
    }
    EXPECT_GT(capped, 0);
}

TEST(Dse, TableIIMatchesScalarOracle)
{
    // The explorer's whole search — pooled, chunked, both settings in
    // one pass — must pick exactly the configs a serial scalar argmax
    // picks, with bitwise equal benefits, on every grid at every pool
    // size.
    for (const DseGrid &grid : oracleGrids()) {
        const ScalarAnswer want = scalarTableII(grid, 160.0);
        for (int threads : {1, 4}) {
            ThreadPool::setGlobalThreads(threads);
            DesignSpaceExplorer dse(evaluator(), grid, 160.0);
            NodeConfig best = dse.findBestMean(PowerOptConfig::none());
            std::vector<TableIIRow> rows = dse.tableII(best);
            ThreadPool::setGlobalThreads(0);

            const std::string at = std::to_string(grid.size()) +
                                   "-point grid, " +
                                   std::to_string(threads) + " thread(s)";
            expectSameConfig(best, want.bestMean, "best mean, " + at);
            ASSERT_EQ(rows.size(), want.rows.size()) << at;
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const TableIIRow &got = rows[i];
                const TableIIRow &exp = want.rows[i];
                const std::string row = appName(exp.app) + ", " + at;
                EXPECT_EQ(got.app, exp.app) << row;
                expectSameConfig(got.bestConfig, exp.bestConfig, row);
                expectSameConfig(got.bestConfigOpt, exp.bestConfigOpt, row);
                EXPECT_EQ(got.benefitNoOptPct, exp.benefitNoOptPct) << row;
                EXPECT_EQ(got.benefitWithOptPct, exp.benefitWithOptPct)
                    << row;
            }
        }
    }
}

TEST(Dse, SearchOrdersOnOneExplorerMatchFreshExplorersAndTheOracle)
{
    // The first search on an explorer keeps its flops; later searches
    // price only power from them. Each order starts with a different
    // kind of search, and every result must equal the same search on a
    // fresh explorer and the serial scalar oracle, bit for bit.
    const std::vector<std::vector<std::string>> orders = {
        {"tableII", "findBestForApp(all)", "sweep(all)",
         "findBestMean(none)"},
        {"sweep(none)", "tableII", "findBestMean(all)",
         "findBestForApp(none)"},
        {"findBestForApp(none)", "sweep(all)", "tableII", "sweep(none)"},
        {"findBestMean(all)", "findBestForApp(all)",
         "findBestMean(none)", "tableII"},
    };
    for (const DseGrid &grid : oracleGrids()) {
        const NodeConfig best = scalarTableII(grid, 160.0).bestMean;
        std::vector<std::string> want;
        for (const std::string &name : searchNames())
            want.push_back(scalarSearch(grid, name, best, 160.0));
        auto wanted = [&](const std::string &name) {
            for (std::size_t k = 0; k < searchNames().size(); ++k) {
                if (searchNames()[k] == name)
                    return want[k];
            }
            ADD_FAILURE() << "unknown search " << name;
            return std::string();
        };

        for (int threads : {1, 4}) {
            ThreadPool::setGlobalThreads(threads);
            const std::string at = std::to_string(grid.size()) +
                                   "-point grid, " +
                                   std::to_string(threads) + " thread(s)";
            for (const std::string &name : searchNames()) {
                DesignSpaceExplorer fresh(evaluator(), grid, 160.0);
                EXPECT_TRUE(explorerSearch(fresh, name, best) ==
                            wanted(name))
                    << name << " on a fresh explorer, " << at;
            }
            for (std::size_t o = 0; o < orders.size(); ++o) {
                DesignSpaceExplorer dse(evaluator(), grid, 160.0);
                for (std::size_t step = 0; step < orders[o].size(); ++step) {
                    const std::string &name = orders[o][step];
                    EXPECT_TRUE(explorerSearch(dse, name, best) ==
                                wanted(name))
                        << name << ", search " << step << " of order " << o
                        << ", " << at;
                }
            }
            ThreadPool::setGlobalThreads(0);
        }
    }
}

TEST(Dse, BestMeanThenTableIIPricesEachPointsFlopsOnce)
{
    // Table II reuses the flops the best-mean search priced. The 8
    // extra evaluations are tableII's evaluate() of the best-mean
    // baseline, one per app.
    telemetry::Counter &evals = telemetry::counter("node.evaluations");
    const std::size_t apps = allApps().size();
    for (const DseGrid &grid : oracleGrids()) {
        DesignSpaceExplorer dse(evaluator(), grid, 160.0);
        const std::uint64_t before = evals.value();
        dse.tableII(dse.findBestMean(PowerOptConfig::none()));
        EXPECT_EQ(evals.value() - before, (grid.size() + 1) * apps)
            << grid.size() << "-point grid";
    }
}

TEST(Dse, ConcurrentSearchesOnOneExplorerMatchFreshExplorers)
{
    // Two threads race the first search on one explorer, each running a
    // different pipeline; both must read what fresh explorers give.
    const DseGrid grid = DseGrid::paperGrid();
    const NodeConfig best = NodeConfig::bestMean();
    auto run = [&](const DesignSpaceExplorer &dse, int which) {
        if (which == 0) {
            return explorerSearch(dse, "findBestMean(none)", best) +
                   explorerSearch(dse, "tableII", best);
        }
        return explorerSearch(dse, "tableII", best) +
               explorerSearch(dse, "sweep(all)", best);
    };
    ThreadPool::setGlobalThreads(4);
    std::string want[2];
    for (int which : {0, 1})
        want[which] = run(DesignSpaceExplorer(evaluator(), grid, 160.0),
                          which);
    for (int round = 0; round < 8; ++round) {
        DesignSpaceExplorer dse(evaluator(), grid, 160.0);
        std::string got[2];
        std::thread other([&] { got[1] = run(dse, 1); });
        got[0] = run(dse, 0);
        other.join();
        EXPECT_TRUE(got[0] == want[0]) << "round " << round;
        EXPECT_TRUE(got[1] == want[1]) << "round " << round;
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(Dse, InvalidGridPointIsQuarantinedNotFatal)
{
    DseGrid g = tinyGrid();
    g.cus.push_back(-64);   // fails NodeConfig::tryValidate
    DesignSpaceExplorer dse(evaluator(), g, 160.0);
    auto points = dse.sweep(PowerOptConfig::none());
    ASSERT_EQ(points.size(), g.size());
    int quarantined = 0;
    for (const DsePoint &p : points) {
        if (p.ok) {
            EXPECT_TRUE(p.error.empty());
            EXPECT_GT(p.geomeanFlops, 0.0);
        } else {
            ++quarantined;
            EXPECT_EQ(p.cfg.cus, -64);
            EXPECT_FALSE(p.feasible);
            EXPECT_NE(p.error.find("bad CU count"), std::string::npos);
        }
    }
    EXPECT_EQ(quarantined, 4);   // -64 crossed with 2 freqs x 2 bws

    // The healthy points, which come first, equal a sweep of the grid
    // without the bad value, bit for bit.
    const auto clean = DesignSpaceExplorer(evaluator(), tinyGrid(), 160.0)
                           .sweep(PowerOptConfig::none());
    EXPECT_EQ(exactPoints({points.begin(), points.begin() + clean.size()}),
              exactPoints(clean));
}

TEST(DseDeathTest, ImpossibleBudgetIsFatal)
{
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 1.0);
    EXPECT_EXIT(dse.findBestMean(PowerOptConfig::none()),
                testing::ExitedWithCode(1), "no feasible configuration");
    EXPECT_EXIT(dse.findBestForApp(App::CoMD, PowerOptConfig::all()),
                testing::ExitedWithCode(1),
                "no feasible configuration for CoMD");
    EXPECT_EXIT(dse.tableII(NodeConfig::bestMean()),
                testing::ExitedWithCode(1),
                "no feasible configuration for MaxFlops");
}

TEST(DseDeathTest, TableIIAfterAQuarantiningSweepDiesOnTheInvalidPoint)
{
    // The sweep quarantines the -64 CU points and keeps flops only for
    // the valid ones; Table II stays fatal on the invalid points.
    DseGrid g = tinyGrid();
    g.cus.push_back(-64);
    DesignSpaceExplorer dse(evaluator(), g, 160.0);
    EXPECT_EXIT(
        {
            dse.sweep(PowerOptConfig::none());
            dse.tableII(NodeConfig::bestMean());
        },
        testing::ExitedWithCode(1), "bad CU count");
}

TEST(DseDeathTest, EmptyGridIsFatal)
{
    EXPECT_EXIT(DesignSpaceExplorer(evaluator(), DseGrid{}, 160.0),
                testing::ExitedWithCode(1), "empty DSE grid");
}
