/**
 * @file
 * InterNodeNetwork: the closed-form topology math, cross-checked
 * against BFS-exact routing on the on-package Topology abstraction for
 * instances small enough to build explicitly.
 */

#include <gtest/gtest.h>

#include "cluster/internode_network.hh"

using namespace ena;

namespace {

ClusterConfig
torusConfig(int nodes)
{
    ClusterConfig c;
    c.topology = ClusterTopology::Torus3D;
    c.nodes = nodes;
    return c;
}

/** BFS-exact mean hop count over all ordered router pairs (self
 *  included, matching the uniform-random-traffic definition). */
double
bfsAvgHops(const Topology &t)
{
    double sum = 0.0;
    for (std::uint32_t a = 0; a < t.numRouters(); ++a) {
        for (std::uint32_t b = 0; b < t.numRouters(); ++b)
            sum += t.hopCount(a, b);
    }
    return sum / (static_cast<double>(t.numRouters()) * t.numRouters());
}

std::uint32_t
bfsDiameter(const Topology &t)
{
    std::uint32_t max_h = 0;
    for (std::uint32_t a = 0; a < t.numRouters(); ++a) {
        for (std::uint32_t b = 0; b < t.numRouters(); ++b)
            max_h = std::max(max_h, t.hopCount(a, b));
    }
    return max_h;
}

} // anonymous namespace

TEST(InterNodeNetwork, TorusClosedFormMatchesBfsExactRouting)
{
    // The closed-form torus hop counts must agree with BFS on the
    // explicit router graph for every shape small enough to build.
    // Each node count is listed with the dimensions derived from it;
    // together they hold rings of size 1, 2, odd and even.
    const int shapes[][4] = {
        {64, 4, 4, 4}, {27, 3, 3, 3}, {24, 4, 3, 2},
        {60, 5, 4, 3}, {26, 13, 1, 2}, {216, 6, 6, 6},
    };
    for (const auto &s : shapes) {
        InterNodeNetwork net(torusConfig(s[0]));
        int nx = 0, ny = 0, nz = 0;
        net.torusDims(nx, ny, nz);
        EXPECT_EQ(nx, s[1]) << s[0] << " nodes";
        EXPECT_EQ(ny, s[2]) << s[0] << " nodes";
        EXPECT_EQ(nz, s[3]) << s[0] << " nodes";
        Topology t = net.smallTorusTopology();
        ASSERT_EQ(t.numRouters(), static_cast<std::uint32_t>(s[0]));
        EXPECT_NEAR(net.avgHops(), bfsAvgHops(t), 1e-12)
            << nx << "x" << ny << "x" << nz;
        EXPECT_DOUBLE_EQ(net.diameterHops(), bfsDiameter(t))
            << nx << "x" << ny << "x" << nz;
    }
}

TEST(InterNodeNetwork, TorusAutoDimsAreNearCubic)
{
    ClusterConfig c;
    c.topology = ClusterTopology::Torus3D;
    c.nodes = 100000;
    InterNodeNetwork net(c);
    int nx = 0, ny = 0, nz = 0;
    net.torusDims(nx, ny, nz);
    EXPECT_EQ(nx * ny * nz, c.nodes);
    EXPECT_EQ(nx, 50);
    EXPECT_EQ(ny, 50);
    EXPECT_EQ(nz, 40);
    EXPECT_DOUBLE_EQ(net.neighborHops(), 1.0);
    EXPECT_EQ(net.switchCount(), 100000u);
}

TEST(InterNodeNetwork, FatTreeAutoRadixSmallestFit)
{
    ClusterConfig c;
    c.nodes = 1000;
    InterNodeNetwork net(c);
    // k^3/4 >= 1000 first holds at k = 16 (1024 nodes).
    EXPECT_EQ(net.fatTreeRadix(), 16);
    EXPECT_DOUBLE_EQ(net.diameterHops(), 6.0);
    EXPECT_DOUBLE_EQ(net.neighborHops(), 2.0);
    // Full (untapered) bisection: half the aggregate injection.
    EXPECT_DOUBLE_EQ(net.bisectionGbs(),
                     1000.0 * net.injectionGbs() / 2.0);
    EXPECT_GT(net.avgHops(), 2.0);
    EXPECT_LE(net.avgHops(), 6.0);
}

TEST(InterNodeNetwork, FatTreeTaperDividesBisectionOnly)
{
    ClusterConfig full;
    full.nodes = 8192;
    ClusterConfig tapered = full;
    tapered.fatTreeTaper = 2.0;
    InterNodeNetwork a(full), b(tapered);
    EXPECT_DOUBLE_EQ(b.bisectionGbs(), a.bisectionGbs() / 2.0);
    EXPECT_DOUBLE_EQ(a.avgHops(), b.avgHops());
    EXPECT_DOUBLE_EQ(a.injectionGbs(), b.injectionGbs());
}

TEST(InterNodeNetwork, DragonflyAutoGroupSmallestFit)
{
    ClusterConfig c;
    c.topology = ClusterTopology::Dragonfly;
    c.nodes = 100;
    InterNodeNetwork net(c);
    // a=4 holds 2*4*9 = 72 < 100; a=6 holds 3*6*19 = 342.
    EXPECT_EQ(net.dragonflyGroupRouters(), 6);
    EXPECT_DOUBLE_EQ(net.diameterHops(), 5.0);
    EXPECT_EQ(net.switchCount(), 6u * 19u);
}

TEST(InterNodeNetwork, BisectionOrderingAcrossFabrics)
{
    // At the same size and NIC, the full fat tree holds the most
    // bisection, the torus the least (that is the cost trade).
    ClusterConfig c;
    c.nodes = 1000;
    c.topology = ClusterTopology::FatTree;
    InterNodeNetwork ft(c);
    c.topology = ClusterTopology::Dragonfly;
    InterNodeNetwork df(c);
    c.topology = ClusterTopology::Torus3D;
    InterNodeNetwork t3(c);
    EXPECT_GT(ft.bisectionGbs(), df.bisectionGbs());
    EXPECT_GT(df.bisectionGbs(), t3.bisectionGbs());
    // And the torus pays for it in hops.
    EXPECT_GT(t3.avgHops(), ft.avgHops());
}

TEST(InterNodeNetwork, DeliveredBandwidthByPattern)
{
    ClusterConfig c;
    c.nodes = 27000;
    for (ClusterTopology t : allClusterTopologies()) {
        c.topology = t;
        InterNodeNetwork net(c);
        EXPECT_DOUBLE_EQ(net.deliveredGbs(CommPattern::Halo),
                         net.injectionGbs());
        EXPECT_DOUBLE_EQ(net.deliveredGbs(CommPattern::Allreduce),
                         net.injectionGbs());
        EXPECT_LE(net.deliveredGbs(CommPattern::AllToAll),
                  net.injectionGbs());
        EXPECT_GT(net.deliveredGbs(CommPattern::AllToAll), 0.0);
    }
}

TEST(InterNodeNetwork, BisectionCountsEveryLinkPlane)
{
    // Regression: the dragonfly and torus closed forms dropped the
    // linksPerNode factor, so their bisection (and hence AllToAll
    // delivered bandwidth) was silently 1/linksPerNode of the fat
    // tree's accounting, which bakes the planes in via injectionGbs().
    // All three fabrics must scale bisection linearly in the NIC port
    // count.
    for (ClusterTopology t : allClusterTopologies()) {
        ClusterConfig c;
        c.nodes = 1000;
        c.topology = t;
        c.linksPerNode = 1;
        InterNodeNetwork one(c);
        c.linksPerNode = 4;
        InterNodeNetwork four(c);
        EXPECT_DOUBLE_EQ(four.bisectionGbs(), 4.0 * one.bisectionGbs())
            << clusterTopologyName(t);
        EXPECT_DOUBLE_EQ(four.injectionGbs(), 4.0 * one.injectionGbs())
            << clusterTopologyName(t);
    }
}

TEST(InterNodeNetwork, AllToAllDeliveredBandwidthPinned)
{
    // Exact post-fix AllToAll delivered rates at n = 1000 with the
    // default NIC (4 x 25 GB/s). delivered = min(injection,
    // 2 * bisection / n):
    //   fat tree (radix 16, taper 1): bisection 50,000 -> 100 GB/s
    //   dragonfly (a = 8, g = 33): (33/2)^2 * 25 * 4 = 27,225
    //     -> 54.45 GB/s
    //   torus (10 x 10 x 10): 2 * 100 * 25 * 4 = 20,000 -> 40 GB/s
    // The pre-fix dragonfly/torus math (no linksPerNode factor) gave
    // 13.6125 and 10 GB/s.
    ClusterConfig c;
    c.nodes = 1000;
    c.topology = ClusterTopology::FatTree;
    EXPECT_DOUBLE_EQ(
        InterNodeNetwork(c).deliveredGbs(CommPattern::AllToAll), 100.0);
    c.topology = ClusterTopology::Dragonfly;
    EXPECT_DOUBLE_EQ(
        InterNodeNetwork(c).deliveredGbs(CommPattern::AllToAll), 54.45);
    c.topology = ClusterTopology::Torus3D;
    EXPECT_DOUBLE_EQ(
        InterNodeNetwork(c).deliveredGbs(CommPattern::AllToAll), 40.0);
}

TEST(InterNodeNetwork, LatencyScalesWithHops)
{
    ClusterConfig c;
    c.linkLatencyUs = 0.5;
    InterNodeNetwork net(c);
    EXPECT_DOUBLE_EQ(net.latencyUs(4.0), 2.0);
    EXPECT_DOUBLE_EQ(net.latencyUs(0.0), 0.0);
}

TEST(InterNodeNetwork, DescribeMentionsTheShape)
{
    InterNodeNetwork net(torusConfig(1000));
    std::string d = net.describe();
    EXPECT_NE(d.find("10 x 10 x 10 torus"), std::string::npos) << d;
    EXPECT_NE(d.find("bisection"), std::string::npos) << d;
}

TEST(InterNodeNetworkDeathTest, WrongTopologyAccessorsAreFatal)
{
    ClusterConfig c;   // fat tree
    InterNodeNetwork net(c);
    int x, y, z;
    EXPECT_EXIT(net.torusDims(x, y, z), testing::ExitedWithCode(1),
                "torusDims");
    EXPECT_EXIT(net.dragonflyGroupRouters(), testing::ExitedWithCode(1),
                "dragonflyGroupRouters");
    EXPECT_EXIT(net.smallTorusTopology(), testing::ExitedWithCode(1),
                "3d-torus");
}
