/**
 * @file
 * Tests of the design-space explorer mechanics (correctness of the
 * search itself; the paper-anchored outcomes live in
 * test_calibration.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/dse.hh"
#include "core/sweep_journal.hh"
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

    for (App app : allApps()) {
        TableIIRow row;
        row.app = app;
        const double base = evaluator().evaluate(a.bestMean, app).perf.flops;
        for (bool with_opt : {false, true}) {
            PowerOptConfig opts =
                with_opt ? PowerOptConfig::all() : PowerOptConfig::none();
            std::optional<double> top;
            NodeConfig arg;
            for (std::size_t i = 0; i < g.size(); ++i) {
                NodeConfig cfg = gridPoint(g, i, opts);
                EvalResult r = evaluator().evaluate(cfg, app);
                if (r.power.budgetPower() > budget)
                    continue;
                if (!top || r.perf.flops > *top) {
                    top = r.perf.flops;
                    arg = cfg;
                }
            }
            EXPECT_TRUE(top.has_value()) << appName(app);
            const double benefit = (top.value_or(0.0) / base - 1.0) * 100.0;
            (with_opt ? row.bestConfigOpt : row.bestConfig) = arg;
            (with_opt ? row.benefitWithOptPct : row.benefitNoOptPct) =
                benefit;
        }
        a.rows.push_back(row);
    }
    return a;
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

TEST(Dse, TableIIMatchesScalarOracle)
{
    // The explorer's whole search — batched, pooled, chunked — must pick
    // exactly the configs a serial scalar argmax picks, with bitwise
    // equal benefits, on every grid at every pool size.
    for (const DseGrid &grid : {tinyGrid(), DseGrid::paperGrid()}) {
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

TEST(Dse, InvalidGridPointIsQuarantinedNotFatal)
{
    DseGrid g = tinyGrid();
    g.cus.push_back(-64);   // fails NodeConfig::tryValidate
    DesignSpaceExplorer dse(evaluator(), g, 160.0);
    auto points = dse.sweep(PowerOptConfig::none(), nullptr);
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
}

TEST(Dse, JournaledSweepResumesWithoutRecomputing)
{
    const std::string path = "test_dse_journal.tmp";
    std::remove(path.c_str());
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 160.0);
    const auto reference = dse.sweep(PowerOptConfig::none(), nullptr);

    {
        auto j = std::move(SweepJournal::open(path)).value();
        dse.sweep(PowerOptConfig::none(), j.get());
        EXPECT_EQ(j->appendedRecords(), reference.size());
    }
    auto j = std::move(SweepJournal::open(path)).value();
    ASSERT_EQ(j->loadedRecords(), reference.size());
    const auto resumed = dse.sweep(PowerOptConfig::none(), j.get());
    EXPECT_EQ(j->appendedRecords(), 0u);   // every point replayed

    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        // Bitwise equality: the journal stores hexfloats.
        EXPECT_EQ(resumed[i].geomeanFlops, reference[i].geomeanFlops);
        EXPECT_EQ(resumed[i].meanBudgetPowerW,
                  reference[i].meanBudgetPowerW);
        EXPECT_EQ(resumed[i].maxBudgetPowerW,
                  reference[i].maxBudgetPowerW);
        EXPECT_EQ(resumed[i].feasible, reference[i].feasible);
        EXPECT_EQ(resumed[i].ok, reference[i].ok);
    }
    std::remove(path.c_str());
}

TEST(DseDeathTest, ImpossibleBudgetIsFatal)
{
    DesignSpaceExplorer dse(evaluator(), tinyGrid(), 1.0);
    EXPECT_EXIT(dse.findBestMean(PowerOptConfig::none()),
                testing::ExitedWithCode(1), "no feasible configuration");
}

TEST(DseDeathTest, EmptyGridIsFatal)
{
    EXPECT_EXIT(DesignSpaceExplorer(evaluator(), DseGrid{}, 160.0),
                testing::ExitedWithCode(1), "empty DSE grid");
}
