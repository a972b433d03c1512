/**
 * @file
 * Unit tests for the redundant-multithreading model.
 */

#include <gtest/gtest.h>

#include "ras/rmt.hh"

using namespace ena;

namespace {

Activity
withUtil(double util)
{
    Activity a;
    a.cuUtilization = util;
    return a;
}

} // anonymous namespace

TEST(Rmt, OffMeansNoCoverageNoCost)
{
    RmtModel rmt;
    RmtOutcome o = rmt.evaluate(withUtil(0.5), RmtPolicy::Off);
    EXPECT_DOUBLE_EQ(o.coverage, 0.0);
    EXPECT_DOUBLE_EQ(o.slowdown, 1.0);
    EXPECT_DOUBLE_EQ(o.extraCuActivity, 0.0);
}

TEST(Rmt, OpportunisticFullCoverageWhenIdleDominates)
{
    RmtModel rmt;
    RmtOutcome o = rmt.evaluate(withUtil(0.2), RmtPolicy::Opportunistic);
    EXPECT_DOUBLE_EQ(o.coverage, 1.0);
    EXPECT_LT(o.slowdown, 1.05);
}

TEST(Rmt, OpportunisticCoverageShrinksWithUtilization)
{
    RmtModel rmt;
    double prev = 1.1;
    for (double util : {0.4, 0.6, 0.8, 0.95}) {
        RmtOutcome o =
            rmt.evaluate(withUtil(util), RmtPolicy::Opportunistic);
        EXPECT_LE(o.coverage, prev);
        prev = o.coverage;
    }
    // At 80% utilization only the idle 20% can host duplicates.
    RmtOutcome o = rmt.evaluate(withUtil(0.8), RmtPolicy::Opportunistic);
    EXPECT_NEAR(o.coverage, 0.25, 1e-9);
}

TEST(Rmt, OpportunisticNeverStealsMuchPerformance)
{
    RmtModel rmt;
    for (double util : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
        RmtOutcome o =
            rmt.evaluate(withUtil(util), RmtPolicy::Opportunistic);
        EXPECT_LT(o.slowdown, 1.15);
    }
}

TEST(Rmt, FullPolicyAlwaysCovers)
{
    RmtModel rmt;
    for (double util : {0.1, 0.5, 0.9}) {
        EXPECT_DOUBLE_EQ(
            rmt.evaluate(withUtil(util), RmtPolicy::Full).coverage,
            1.0);
    }
}

TEST(Rmt, FullPolicyDilatesBusyKernels)
{
    RmtModel rmt;
    RmtOutcome idle = rmt.evaluate(withUtil(0.2), RmtPolicy::Full);
    RmtOutcome busy = rmt.evaluate(withUtil(0.9), RmtPolicy::Full);
    EXPECT_LT(idle.slowdown, 1.2);
    EXPECT_GT(busy.slowdown, 1.7);
}

TEST(Rmt, FullBeatsOpportunisticOnCoverageCostsMoreWhenBusy)
{
    RmtModel rmt;
    Activity busy = withUtil(0.85);
    RmtOutcome opp = rmt.evaluate(busy, RmtPolicy::Opportunistic);
    RmtOutcome full = rmt.evaluate(busy, RmtPolicy::Full);
    EXPECT_GT(full.coverage, opp.coverage);
    EXPECT_GT(full.slowdown, opp.slowdown);
}

TEST(RmtDeathTest, BadOverheadPanics)
{
    EXPECT_DEATH(RmtModel(1.5), "overhead");
}

TEST(Rmt, PolicyNamesRoundTrip)
{
    for (RmtPolicy p : allRmtPolicies())
        EXPECT_EQ(*tryRmtPolicyFromName(rmtPolicyName(p)), p);
    EXPECT_EQ(*tryRmtPolicyFromName("none"), RmtPolicy::Off);
    EXPECT_EQ(*tryRmtPolicyFromName("disabled"), RmtPolicy::Off);
    EXPECT_EQ(*tryRmtPolicyFromName("OPPORTUNISTIC"),
              RmtPolicy::Opportunistic);
}

// The fatal name parser is gone; CLIs unwrap the error at their own
// boundary. The test keeps its name and pins the Status.
TEST(RmtDeathTest, UnknownPolicyNamePanics)
{
    auto p = tryRmtPolicyFromName("triple");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(p.status().message(), "unknown RMT policy 'triple' "
                                    "(want off, opportunistic, or full)");
}
