/**
 * @file
 * CommModel: per-pattern communication volume and cost, including the
 * exact-zero guarantees the Fig. 14 reduction relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/internode_network.hh"
#include "workloads/kernel_profile.hh"

using namespace ena;

namespace {

const KernelProfile &comd() { return profileFor(App::CoMD); }

InterNodeNetwork
defaultNet(int nodes = 100000)
{
    ClusterConfig c;
    c.nodes = nodes;
    return InterNodeNetwork(c);
}

} // anonymous namespace

TEST(CommPattern, NamesRoundTrip)
{
    for (CommPattern p : allCommPatterns())
        EXPECT_EQ(*tryCommPatternFromName(commPatternName(p)), p);
    EXPECT_EQ(*tryCommPatternFromName("a2a"), CommPattern::AllToAll);
    EXPECT_EQ(*tryCommPatternFromName("ALLTOALL"), CommPattern::AllToAll);
    EXPECT_EQ(*tryCommPatternFromName("stencil"), CommPattern::Halo);
}

// The fatal parser is gone; callers unwrap the error at their own
// boundary. The test keeps its name and pins the Status instead.
TEST(CommPatternDeathTest, UnknownNameIsFatal)
{
    Expected<CommPattern> p = tryCommPatternFromName("gossip");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(p.status().message(),
              "unknown comm pattern 'gossip' (want halo, allreduce, or "
              "all-to-all)");
}

TEST(CommModel, ZeroIntensityCostsExactlyNothing)
{
    // The identity behind the Fig. 14 reduction: intensity 0 must give
    // an exactly-zero cost and an efficiency of exactly 1.0 (==, not
    // near), so multiplying it onto the analytic projection is a no-op.
    InterNodeNetwork net = defaultNet();
    for (CommPattern p : allCommPatterns()) {
        CommSpec spec = CommSpec::none();
        spec.pattern = p;
        CommCost c = CommModel::cost(comd(), spec, net, 1e13);
        EXPECT_EQ(c.bytesPerFlop, 0.0);
        EXPECT_EQ(c.bwOverhead, 0.0);
        EXPECT_EQ(c.latOverhead, 0.0);
        EXPECT_EQ(c.overheadRatio(), 0.0);
        EXPECT_EQ(c.efficiency(), 1.0);
    }
}

TEST(CommModel, SingleNodeHasNothingToExchange)
{
    InterNodeNetwork net = defaultNet(1);
    CommSpec spec;   // full halo intensity
    CommCost c = CommModel::cost(comd(), spec, net, 1e13);
    EXPECT_EQ(c.bytesPerFlop, 0.0);
    EXPECT_EQ(c.overheadRatio(), 0.0);
    EXPECT_EQ(c.efficiency(), 1.0);
}

TEST(CommModel, PatternVolumeOrdering)
{
    // A halo ships surfaces, an allreduce a small vector, an all-to-all
    // about half the working set: volumes must order that way.
    const int nodes = 4096;
    CommSpec halo, ar, a2a;
    ar.pattern = CommPattern::Allreduce;
    a2a.pattern = CommPattern::AllToAll;
    double v_halo = CommModel::bytesPerFlop(comd(), halo, nodes);
    double v_ar = CommModel::bytesPerFlop(comd(), ar, nodes);
    double v_a2a = CommModel::bytesPerFlop(comd(), a2a, nodes);
    EXPECT_GT(v_halo, 0.0);
    EXPECT_GT(v_ar, 0.0);
    EXPECT_GT(v_a2a, v_halo);
    EXPECT_GT(v_halo, v_ar);
}

TEST(CommModel, StrongScalingShipsMoreBytesPerFlop)
{
    CommSpec weak, strong;
    strong.scaling = ScalingMode::Strong;
    const int nodes = 1000;
    double w = CommModel::bytesPerFlop(comd(), weak, nodes);
    double s = CommModel::bytesPerFlop(comd(), strong, nodes);
    // Surface-to-volume under a 3D decomposition: cbrt(P) growth.
    EXPECT_DOUBLE_EQ(s, w * std::cbrt(1000.0));
}

TEST(CommModel, IntensityScalesLinearly)
{
    CommSpec one, half;
    half.intensity = 0.5;
    const int nodes = 512;
    EXPECT_DOUBLE_EQ(CommModel::bytesPerFlop(comd(), half, nodes),
                     0.5 * CommModel::bytesPerFlop(comd(), one, nodes));
}

TEST(CommModel, EfficiencyIsAProperFraction)
{
    InterNodeNetwork net = defaultNet();
    for (App app : allApps()) {
        for (CommPattern p : allCommPatterns()) {
            CommSpec spec;
            spec.pattern = p;
            CommCost c =
                CommModel::cost(profileFor(app), spec, net, 1e13);
            EXPECT_GT(c.efficiency(), 0.0) << appName(app);
            EXPECT_LE(c.efficiency(), 1.0) << appName(app);
            EXPECT_GE(c.overheadRatio(), 0.0) << appName(app);
        }
    }
}

TEST(CommModel, MaxFlopsBarelyCommunicates)
{
    // MaxFlops has a tiny external-traffic fraction and a huge
    // arithmetic intensity; its halo cost must be near-free while a
    // bandwidth-bound stencil app pays a real toll.
    InterNodeNetwork net = defaultNet();
    CommSpec halo;
    double eff_max =
        CommModel::cost(profileFor(App::MaxFlops), halo, net, 1.8e13)
            .efficiency();
    double eff_amr =
        CommModel::cost(profileFor(App::MiniAMR), halo, net, 1.8e13)
            .efficiency();
    EXPECT_GT(eff_max, 0.99);
    EXPECT_LT(eff_amr, eff_max);
}

TEST(CommModel, AllreducePaysLogDepthLatency)
{
    // With bandwidth out of the picture (tiny flops rate), allreduce
    // latency grows with the tree depth, so doubling the node count
    // adds one step.
    ClusterConfig c;
    c.nodes = 1024;
    InterNodeNetwork net1024(c);
    c.nodes = 2048;
    InterNodeNetwork net2048(c);
    CommSpec ar;
    ar.pattern = CommPattern::Allreduce;
    double lat1024 =
        CommModel::cost(comd(), ar, net1024, 1.0).latOverhead;
    double lat2048 =
        CommModel::cost(comd(), ar, net2048, 1.0).latOverhead;
    EXPECT_GT(lat2048, lat1024);
    // steps: ceil(log2(1024)) = 10 vs ceil(log2(2048)) = 11.
    EXPECT_NEAR(lat2048 / lat1024,
                (11.0 / 10.0) * (net2048.avgHops() / net1024.avgHops()),
                1e-9);
}
