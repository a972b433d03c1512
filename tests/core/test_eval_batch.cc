/**
 * @file
 * The retired batch names (core/eval_batch.hh) the repository
 * benchmark still compiles against: NodeConfigBatch enumeration order,
 * evaluateBatchAll as a fold of the scalar NodeEvaluator::evaluate,
 * and the fatal path for invalid knobs.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/dse.hh"
#include "core/eval_batch.hh"
#include "core/node_evaluator.hh"
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

TEST(EvaluateBatchAll, AggregatesMatchScalarFold)
{
    NodeConfigBatch b = paperBatch();
    BatchAggregates agg = evaluator().evaluateBatchAll(b);
    ASSERT_EQ(agg.geomeanFlops.size(), b.size());
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
    BatchAggregates agg = evaluator().evaluateBatchAll(b);
    EXPECT_TRUE(agg.geomeanFlops.empty());
    EXPECT_TRUE(agg.meanBudgetPowerW.empty());
    EXPECT_TRUE(agg.maxBudgetPowerW.empty());
}

TEST(EvaluateBatchDeathTest, InvalidKnobDiesWithValidateDiagnostic)
{
    NodeConfigBatch b =
        NodeConfigBatch::fromAxes(NodeConfig{}, {320, -64}, {1.0}, {3.0});
    EXPECT_EXIT(evaluator().evaluateBatchAll(b),
                testing::ExitedWithCode(1), "bad CU count");
}

} // anonymous namespace
} // namespace ena
