/**
 * @file
 * Unit and property tests for the node power model: component
 * composition, monotonicity in the knobs, external-memory anchors from
 * the paper, and NVM energy behaviour.
 */

#include <gtest/gtest.h>

#include "common/calibration.hh"
#include "power/node_power.hh"

using namespace ena;

namespace {

Activity
typicalActivity()
{
    Activity a;
    a.cuUtilization = 0.5;
    a.inPkgTrafficGbs = 2000.0;
    a.extTrafficGbs = 1000.0;   // above the SerDes cap on purpose
    a.nocTrafficGbs = 2400.0;
    a.writeFraction = 0.3;
    a.compressRatio = 1.4;
    return a;
}

} // anonymous namespace

TEST(NodePower, ComponentsSumToTotal)
{
    NodePowerModel model;
    PowerBreakdown p = model.evaluate(NodeConfig::bestMean(),
                                      typicalActivity());
    double sum = p.cuDyn + p.cuStatic + p.nocDyn + p.nocStatic +
                 p.hbmDyn + p.hbmStatic + p.cpu + p.sys + p.extMemDyn +
                 p.extMemStatic + p.serdesDyn + p.serdesStatic;
    EXPECT_NEAR(p.total(), sum, 1e-9);
    EXPECT_NEAR(p.packagePower() + p.externalPower(), p.total(), 1e-9);
    EXPECT_NEAR(p.budgetPower(),
                p.packagePower() + p.extMemStatic + p.serdesStatic,
                1e-9);
}

TEST(NodePower, AllComponentsNonNegative)
{
    NodePowerModel model;
    PowerBreakdown p = model.evaluate(NodeConfig::bestMean(),
                                      typicalActivity());
    EXPECT_GE(p.cuDyn, 0.0);
    EXPECT_GE(p.cuStatic, 0.0);
    EXPECT_GE(p.nocDyn, 0.0);
    EXPECT_GE(p.nocStatic, 0.0);
    EXPECT_GE(p.hbmDyn, 0.0);
    EXPECT_GE(p.hbmStatic, 0.0);
    EXPECT_GE(p.cpu, 0.0);
    EXPECT_GE(p.sys, 0.0);
    EXPECT_GE(p.extMemDyn, 0.0);
    EXPECT_GE(p.extMemStatic, 0.0);
    EXPECT_GE(p.serdesDyn, 0.0);
    EXPECT_GE(p.serdesStatic, 0.0);
}

TEST(NodePower, MonotonicInCuCount)
{
    NodePowerModel model;
    Activity act = typicalActivity();
    NodeConfig lo = NodeConfig::bestMean();
    NodeConfig hi = lo;
    hi.cus = 384;
    EXPECT_GT(model.evaluate(hi, act).cuDyn,
              model.evaluate(lo, act).cuDyn);
    EXPECT_GT(model.evaluate(hi, act).cuStatic,
              model.evaluate(lo, act).cuStatic);
}

TEST(NodePower, MonotonicInFrequency)
{
    NodePowerModel model;
    Activity act = typicalActivity();
    NodeConfig lo = NodeConfig::bestMean();
    lo.freqGhz = 0.8;
    NodeConfig hi = lo;
    hi.freqGhz = 1.4;
    // Frequency raises dynamic power superlinearly (f * V(f)^2).
    double ratio = model.evaluate(hi, act).cuDyn /
                   model.evaluate(lo, act).cuDyn;
    EXPECT_GT(ratio, 1.4 / 0.8);
}

TEST(NodePower, BandwidthProvisioningCostIsSuperlinear)
{
    NodePowerModel model;
    Activity act = typicalActivity();
    NodeConfig b1 = NodeConfig::bestMean();
    b1.bwTbs = 1.0;
    NodeConfig b4 = b1;
    b4.bwTbs = 4.0;
    double s1 = model.evaluate(b1, act).hbmStatic;
    double s4 = model.evaluate(b4, act).hbmStatic;
    EXPECT_GT(s4 - cal::hbmStackStaticW * 8,
              4.0 * (s1 - cal::hbmStackStaticW * 8) * 1.5);
}

TEST(NodePower, ExternalStaticAnchorsFromPaper)
{
    // Paper Section V-C: ~27 W external-DRAM static/refresh and ~10 W
    // SerDes background power for the DRAM-only configuration.
    NodePowerModel model;
    NodeConfig cfg = NodeConfig::bestMean();
    cfg.ext = ExtMemConfig::dramOnly();
    PowerBreakdown p = model.evaluate(cfg, typicalActivity());
    EXPECT_NEAR(p.extMemStatic, 27.0, 0.5);
    EXPECT_NEAR(p.serdesStatic, 10.0, 0.5);
}

TEST(NodePower, HybridHalvesExternalStatic)
{
    // Paper finding 2 (Fig. 9): the hybrid DRAM+NVM configuration cuts
    // external static power by about one half.
    NodePowerModel model;
    Activity act = typicalActivity();
    NodeConfig dram = NodeConfig::bestMean();
    dram.ext = ExtMemConfig::dramOnly();
    NodeConfig hybrid = dram;
    hybrid.ext = ExtMemConfig::hybrid();
    double s_dram = model.evaluate(dram, act).extMemStatic +
                    model.evaluate(dram, act).serdesStatic;
    double s_hyb = model.evaluate(hybrid, act).extMemStatic +
                   model.evaluate(hybrid, act).serdesStatic;
    EXPECT_NEAR(s_hyb / s_dram, 0.5, 0.12);
}

TEST(NodePower, NvmRaisesDynamicEnergy)
{
    NodePowerModel model;
    Activity act = typicalActivity();
    NodeConfig dram = NodeConfig::bestMean();
    dram.ext = ExtMemConfig::dramOnly();
    NodeConfig hybrid = dram;
    hybrid.ext = ExtMemConfig::hybrid();
    EXPECT_GT(model.evaluate(hybrid, act).extMemDyn,
              2.0 * model.evaluate(dram, act).extMemDyn);
}

TEST(NodePower, NvmWriteEnergyDominates)
{
    NodePowerModel model;
    NodeConfig hybrid = NodeConfig::bestMean();
    hybrid.ext = ExtMemConfig::hybrid();
    Activity reads = typicalActivity();
    reads.writeFraction = 0.0;
    Activity writes = typicalActivity();
    writes.writeFraction = 1.0;
    EXPECT_GT(model.evaluate(hybrid, writes).extMemDyn,
              3.0 * model.evaluate(hybrid, reads).extMemDyn);
}

TEST(NodePower, ExternalTrafficCappedBySerdes)
{
    NodePowerModel model;
    NodeConfig cfg = NodeConfig::bestMean();
    Activity at_cap = typicalActivity();
    at_cap.extTrafficGbs = cfg.ext.aggregateGbs();
    Activity over_cap = typicalActivity();
    over_cap.extTrafficGbs = cfg.ext.aggregateGbs() * 10.0;
    EXPECT_NEAR(model.evaluate(cfg, at_cap).serdesDyn,
                model.evaluate(cfg, over_cap).serdesDyn, 1e-9);
}

TEST(NodePower, IdleActivityStillBurnsPower)
{
    NodePowerModel model;
    Activity idle;
    idle.cuUtilization = 0.0;
    idle.inPkgTrafficGbs = 0.0;
    idle.extTrafficGbs = 0.0;
    idle.nocTrafficGbs = 0.0;
    PowerBreakdown p = model.evaluate(NodeConfig::bestMean(), idle);
    EXPECT_GT(p.cuDyn, 0.0);   // clock/idle overhead
    EXPECT_GT(p.total(), 50.0);
}

TEST(NodePower, ActivityHelper)
{
    Activity a;
    a.cuIdleActivity = 0.3;
    a.cuUtilization = 0.5;
    EXPECT_DOUBLE_EQ(a.cuActivity(), 0.3 + 0.7 * 0.5);
    a.cuUtilization = 1.0;
    EXPECT_DOUBLE_EQ(a.cuActivity(), 1.0);
}
