/**
 * @file
 * Tests of the combined perf+power evaluator.
 */

#include <gtest/gtest.h>

#include "core/node_evaluator.hh"

using namespace ena;

TEST(NodeEvaluator, EvaluateAllCoversCatalog)
{
    NodeEvaluator eval;
    auto all = eval.evaluateAll(NodeConfig::bestMean());
    ASSERT_EQ(all.size(), 8u);
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].app, allApps()[i]);
}

TEST(NodeEvaluator, TeraflopsAndEfficiencyHelpers)
{
    NodeEvaluator eval;
    EvalResult r = eval.evaluate(NodeConfig::bestMean(), App::CoMD);
    EXPECT_NEAR(r.teraflops(), r.perf.flops / 1e12, 1e-12);
    EXPECT_NEAR(r.perfPerWatt(), r.perf.flops / r.power.total(), 1e-6);
}

TEST(NodeEvaluator, MeanAndMaxBudgetPowerOrdering)
{
    NodeEvaluator eval;
    NodeConfig cfg = NodeConfig::bestMean();
    double max_p = eval.maxBudgetPower(cfg);
    // Every per-app value, and so their mean, is bounded by the max.
    for (App app : allApps()) {
        EXPECT_LE(eval.evaluate(cfg, app).power.budgetPower(),
                  max_p + 1e-9);
    }
}

TEST(NodeEvaluator, GeomeanBetweenMinAndMax)
{
    NodeEvaluator eval;
    NodeConfig cfg = NodeConfig::bestMean();
    double g = eval.geomeanFlops(cfg);
    double lo = 1e30;
    double hi = 0.0;
    for (App app : allApps()) {
        double f = eval.evaluate(cfg, app).perf.flops;
        lo = std::min(lo, f);
        hi = std::max(hi, f);
    }
    EXPECT_GE(g, lo);
    EXPECT_LE(g, hi);
}

TEST(NodeEvaluator, MemoryAppsDrawLessCuPower)
{
    NodeEvaluator eval;
    NodeConfig cfg = NodeConfig::bestMean();
    double mf = eval.evaluate(cfg, App::MaxFlops).power.cuDyn;
    double xs = eval.evaluate(cfg, App::XSBench).power.cuDyn;
    EXPECT_GT(mf, 2.0 * xs);
}

TEST(NodeEvaluator, ComputeAppsDrawLessMemoryPower)
{
    NodeEvaluator eval;
    NodeConfig cfg = NodeConfig::bestMean();
    double mf = eval.evaluate(cfg, App::MaxFlops).power.hbmDyn;
    double mini = eval.evaluate(cfg, App::MiniAMR).power.hbmDyn;
    EXPECT_LT(mf, 0.1 * mini);
}

TEST(NodeEvaluator, DeterministicAcrossCalls)
{
    NodeEvaluator eval;
    EvalResult a = eval.evaluate(NodeConfig::bestMean(), App::SNAP);
    EvalResult b = eval.evaluate(NodeConfig::bestMean(), App::SNAP);
    EXPECT_DOUBLE_EQ(a.perf.flops, b.perf.flops);
    EXPECT_DOUBLE_EQ(a.power.total(), b.power.total());
}
