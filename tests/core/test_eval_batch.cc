/**
 * @file
 * NodeConfigBatch / evaluateBatch / evaluateBatchAll: bit-identity
 * against the scalar NodeEvaluator::evaluate oracle across the full
 * Table II grid and randomized configurations, batch enumeration
 * order, and the fatal path for invalid knobs.
 */

#include <gtest/gtest.h>

#include "core/dse.hh"
#include "core/eval_batch.hh"
#include "core/node_evaluator.hh"
#include "util/rng.hh"
#include "util/stats_math.hh"

namespace ena {
namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

NodeConfigBatch
paperBatch()
{
    DseGrid grid = DseGrid::paperGrid();
    NodeConfig base;
    base.cus = grid.cus.front();
    base.freqGhz = grid.freqsGhz.front();
    base.bwTbs = grid.bwsTbs.front();
    return NodeConfigBatch::fromAxes(base, grid.cus, grid.freqsGhz,
                                     grid.bwsTbs);
}

TEST(NodeConfigBatch, FromAxesEnumeratesRowMajor)
{
    NodeConfig base;
    NodeConfigBatch b = NodeConfigBatch::fromAxes(
        base, {64, 128}, {1.0, 2.0, 3.0}, {4.0, 5.0});
    ASSERT_EQ(b.size(), 12u);
    // cus outer, freq middle, bw inner — DSE's configAt order.
    EXPECT_EQ(b.cus[0], 64);
    EXPECT_EQ(b.freqsGhz[0], 1.0);
    EXPECT_EQ(b.bwsTbs[0], 4.0);
    EXPECT_EQ(b.bwsTbs[1], 5.0);
    EXPECT_EQ(b.freqsGhz[2], 2.0);
    EXPECT_EQ(b.cus[6], 128);

    NodeConfig at = b.at(7);
    EXPECT_EQ(at.cus, 128);
    EXPECT_EQ(at.freqGhz, 1.0);
    EXPECT_EQ(at.bwTbs, 5.0);
}

TEST(EvaluateBatch, BitIdenticalToScalarAcrossTableIIGrid)
{
    NodeConfigBatch b = paperBatch();
    for (App app : allApps()) {
        BatchEvalResult r = evaluator().evaluateBatch(b, app);
        ASSERT_EQ(r.flops.size(), b.size());
        for (std::size_t i = 0; i < b.size(); ++i) {
            EvalResult oracle = evaluator().evaluate(b.at(i), app);
            EXPECT_EQ(r.flops[i], oracle.perf.flops);
            EXPECT_EQ(r.budgetPowerW[i], oracle.power.budgetPower());
            EXPECT_EQ(r.packagePowerW[i], oracle.power.packagePower());
            EXPECT_EQ(r.totalPowerW[i], oracle.power.total());
        }
    }
}

TEST(EvaluateBatch, BitIdenticalOnRandomizedConfigs)
{
    Rng rng(42);
    NodeConfigBatch b;
    b.base.opts = PowerOptConfig::all();
    for (int i = 0; i < 200; ++i) {
        int cus = static_cast<int>(rng.range(1, 4096));
        double f = 0.05 + rng.uniform() * 9.9;
        double bw = 0.05 + rng.uniform() * 99.0;
        b.push(cus, f, bw);
    }
    BatchEvalResult r = evaluator().evaluateBatch(b, App::HPGMG);
    for (std::size_t i = 0; i < b.size(); ++i) {
        EvalResult oracle = evaluator().evaluate(b.at(i), App::HPGMG);
        EXPECT_EQ(r.flops[i], oracle.perf.flops) << "point " << i;
        EXPECT_EQ(r.budgetPowerW[i], oracle.power.budgetPower())
            << "point " << i;
    }
}

TEST(EvaluateBatchAll, AggregatesMatchScalarFold)
{
    NodeConfigBatch b = paperBatch();
    BatchAggregates agg = evaluator().evaluateBatchAll(b);
    const std::vector<App> &apps = allApps();
    std::vector<double> flops(apps.size());
    std::vector<double> budget(apps.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            EvalResult r = evaluator().evaluate(b.at(i), apps[a]);
            flops[a] = r.perf.flops;
            budget[a] = r.power.budgetPower();
        }
        EXPECT_EQ(agg.geomeanFlops[i], geomean(flops));
        EXPECT_EQ(agg.meanBudgetPowerW[i], mean(budget));
        double worst = 0.0;
        for (double w : budget)
            worst = std::max(worst, w);
        EXPECT_EQ(agg.maxBudgetPowerW[i], worst);
    }
}

TEST(EvaluateBatch, EmptyBatchIsANoOp)
{
    NodeConfigBatch b;
    BatchEvalResult r = evaluator().evaluateBatch(b, App::CoMD);
    EXPECT_TRUE(r.flops.empty());
    BatchAggregates agg = evaluator().evaluateBatchAll(b);
    EXPECT_TRUE(agg.geomeanFlops.empty());
}

TEST(EvaluateBatchDeathTest, InvalidKnobDiesWithValidateDiagnostic)
{
    NodeConfigBatch b;
    b.push(320, 1.0, 3.0);
    b.push(-64, 1.0, 3.0);
    EXPECT_EXIT(evaluator().evaluateBatch(b, App::CoMD),
                testing::ExitedWithCode(1), "bad CU count");
}

} // anonymous namespace
} // namespace ena
