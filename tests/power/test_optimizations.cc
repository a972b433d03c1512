/**
 * @file
 * Tests of the Section V-E power-optimization techniques: every
 * technique must save power, compose, and land in the paper's ranges at
 * the best-mean configuration.
 */

#include <gtest/gtest.h>

#include "core/node_evaluator.hh"
#include "power/optimizations.hh"
#include "util/stats_math.hh"

using namespace ena;

namespace {

Activity
activityFor(App app)
{
    static NodeEvaluator eval;
    return eval.evaluate(NodeConfig::bestMean(), app).perf.activity;
}

} // anonymous namespace

TEST(PowerOpts, NamesAndCatalog)
{
    EXPECT_EQ(allPowerOpts().size(), 6u);
    EXPECT_EQ(powerOptName(PowerOpt::Ntc), "NTC");
    EXPECT_EQ(powerOptName(PowerOpt::All), "All");
}

TEST(PowerOpts, MakeOptConfigSelectsOneTechnique)
{
    PowerOptConfig c = makeOptConfig(PowerOpt::AsyncRouter);
    EXPECT_TRUE(c.asyncRouter);
    EXPECT_FALSE(c.ntc);
    EXPECT_FALSE(c.asyncCu);
    EXPECT_FALSE(c.lpLinks);
    EXPECT_FALSE(c.compression);
    EXPECT_TRUE(c.any());
    EXPECT_FALSE(PowerOptConfig::none().any());
}

TEST(PowerOpts, BitsDistinguishEverySetting)
{
    // Each toggle flips its own bit, so every combination gets its own
    // sweep-journal key.
    EXPECT_EQ(powerOptBits(PowerOptConfig::none()), 0);
    PowerOptConfig o;
    o.ntc = true;
    EXPECT_EQ(powerOptBits(o) & 1, 1);
    o = PowerOptConfig::all();
    EXPECT_EQ(powerOptBits(o), 0x1f);
}

class OptSavingsTest : public testing::TestWithParam<App>
{
};

TEST_P(OptSavingsTest, EveryTechniqueSavesPower)
{
    NodePowerModel model;
    auto savings = evaluateOptSavings(model, NodeConfig::bestMean(),
                                      activityFor(GetParam()));
    ASSERT_EQ(savings.size(), 6u);
    for (const OptSavings &s : savings) {
        EXPECT_GE(s.savingsFrac, -1e-12)
            << powerOptName(s.opt) << " increased power";
        EXPECT_LE(s.optimizedW, s.baselineW + 1e-9);
    }
}

TEST_P(OptSavingsTest, AllBeatsEveryIndividualTechnique)
{
    NodePowerModel model;
    auto savings = evaluateOptSavings(model, NodeConfig::bestMean(),
                                      activityFor(GetParam()));
    double all = savings.back().savingsFrac;
    for (size_t i = 0; i + 1 < savings.size(); ++i)
        EXPECT_GE(all, savings[i].savingsFrac - 1e-12);
}

TEST_P(OptSavingsTest, CombinedSavingsInPaperBand)
{
    // Paper: 13% to 27% when all techniques are deployed together.
    NodePowerModel model;
    auto savings = evaluateOptSavings(model, NodeConfig::bestMean(),
                                      activityFor(GetParam()));
    double all = savings.back().savingsFrac;
    EXPECT_GE(all, 0.08);
    EXPECT_LE(all, 0.30);
}

INSTANTIATE_TEST_SUITE_P(AllApps, OptSavingsTest,
                         testing::ValuesIn(allApps()),
                         [](const auto &info) {
                             std::string n = appName(info.param);
                             for (char &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

TEST(PowerOpts, NtcIsTheLargestMeanSaver)
{
    // Paper Fig. 12: NTC dominates the individual techniques.
    NodePowerModel model;
    std::vector<double> per_opt(6, 0.0);
    for (App app : allApps()) {
        auto savings = evaluateOptSavings(model, NodeConfig::bestMean(),
                                          activityFor(app));
        for (size_t i = 0; i < savings.size(); ++i)
            per_opt[i] += savings[i].savingsFrac;
    }
    // Index 0 is NTC; 5 is All.
    for (size_t i = 1; i + 1 < per_opt.size(); ++i)
        EXPECT_GT(per_opt[0], per_opt[i]);
}

TEST(PowerOpts, CompressionHelpsLuleshMost)
{
    // Paper: "LULESH benefits the most from this optimization, given
    // its high memory intensity."
    NodePowerModel model;
    double best = -1.0;
    App best_app = App::MaxFlops;
    for (App app : allApps()) {
        auto savings = evaluateOptSavings(model, NodeConfig::bestMean(),
                                          activityFor(app));
        double c = savings[4].savingsFrac;   // Compression
        EXPECT_EQ(savings[4].opt, PowerOpt::Compression);
        if (c > best) {
            best = c;
            best_app = app;
        }
    }
    EXPECT_TRUE(best_app == App::LULESH || best_app == App::MiniAMR)
        << "compression favored " << appName(best_app);
}

TEST(PowerOpts, CompressionDoesNothingForIncompressibleTraffic)
{
    NodePowerModel model;
    Activity act = activityFor(App::MaxFlops);
    act.compressRatio = 1.0;
    act.inPkgTrafficGbs = 1000.0;
    act.nocTrafficGbs = 1200.0;
    NodeConfig cfg = NodeConfig::bestMean();
    cfg.opts = PowerOptConfig::none();
    double base = model.evaluate(cfg, act).total();
    cfg.opts = makeOptConfig(PowerOpt::Compression);
    EXPECT_NEAR(model.evaluate(cfg, act).total(), base, 1e-9);
}

TEST(PowerOpts, NtcSavingsShrinkAtHighFrequency)
{
    NodePowerModel model;
    Activity act = activityFor(App::MaxFlops);
    NodeConfig lo = NodeConfig::bestMean();
    lo.freqGhz = 0.9;
    NodeConfig hi = NodeConfig::bestMean();
    hi.freqGhz = 1.5;

    auto frac = [&](NodeConfig cfg) {
        cfg.opts = PowerOptConfig::none();
        double base = model.evaluate(cfg, act).budgetPower();
        cfg.opts = makeOptConfig(PowerOpt::Ntc);
        return 1.0 - model.evaluate(cfg, act).budgetPower() / base;
    };
    EXPECT_GT(frac(lo), frac(hi));
    EXPECT_NEAR(frac(hi), 0.0, 1e-9);   // fully faded out at 1.5 GHz
}
