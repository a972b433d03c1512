/**
 * @file
 * Unit tests for the CPU cluster traffic model.
 */

#include <gtest/gtest.h>

#include "cpu/cpu_cluster.hh"
#include "gpu/mem_stack_endpoint.hh"
#include "mem/address_map.hh"
#include "mem/hbm_stack.hh"
#include "noc/interposer_network.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"
#include "util/string_utils.hh"

using namespace ena;

namespace {

struct CpuFixture : testing::Test
{
    Simulation sim;
    Topology topo = Topology::ehp(2, 2);
    AddressMap addrMap{2};
    InterposerNetwork *net = nullptr;
    std::vector<HbmStack *> stacks;

    CpuCluster *
    build(CpuClusterParams cc)
    {
        net = sim.create<InterposerNetwork>("noc", topo,
                                            InterposerParams{});
        for (int i = 0; i < 2; ++i) {
            auto *stack =
                sim.create<HbmStack>(strformat("hbm%d", i), 200.0 / 2);
            stacks.push_back(stack);
            sim.create<MemStackEndpoint>(
                strformat("hbm%d.port", i),
                topo.nodeOf(NodeKind::MemStack, i), *stack, *net);
        }
        return sim.create<CpuCluster>("cpu0", 0, topo, cc, addrMap, *net);
    }
};

} // anonymous namespace

TEST_F(CpuFixture, GeneratesBoundedTraffic)
{
    CpuClusterParams cc;
    cc.maxAccesses = 100;
    CpuCluster *cpu = build(cc);
    sim.run();
    EXPECT_EQ(cpu->accessesIssued(), 100u);
    // All accesses reached a stack.
    EXPECT_GT(stacks[0]->bytesServed() + stacks[1]->bytesServed(), 0.0);
}

TEST_F(CpuFixture, QuiesceStopsIssuing)
{
    CpuClusterParams cc;
    CpuCluster *cpu = build(cc);
    sim.initAll();
    sim.run(sim.curTick() + 10 * tickPerUs);
    std::uint64_t before = cpu->accessesIssued();
    EXPECT_GT(before, 0u);
    cpu->quiesce();
    sim.run();
    // At most events already in flight complete; no new issues.
    EXPECT_LE(cpu->accessesIssued(), before + 1);
}

TEST_F(CpuFixture, RateScalesWithAccessGap)
{
    CpuClusterParams slow;
    slow.accessNsPerCore = 1600.0;
    slow.maxAccesses = 1u << 30;
    CpuCluster *cpu = build(slow);
    sim.initAll();
    sim.run(sim.curTick() + 50 * tickPerUs);
    double measured = static_cast<double>(cpu->accessesIssued());
    // Expected ~ 50 us / (1600 ns / 16 cores) = 500 accesses.
    EXPECT_NEAR(measured, 500.0, 150.0);
}

TEST(CpuClusterDeathTest, AddressMapWiderThanTheTopologyPanics)
{
    Simulation sim;
    Topology topo = Topology::ehp(2, 2);
    AddressMap four_stacks(4);
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    EXPECT_DEATH(sim.create<CpuCluster>("cpu0", 0, topo, CpuClusterParams{},
                                        four_stacks, *net),
                 "address map names stacks the topology lacks");
}
