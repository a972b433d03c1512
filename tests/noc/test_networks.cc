/**
 * @file
 * Unit tests for the interposer network and the monolithic crossbar:
 * delivery, latency structure, contention, and accounting.
 */

#include <gtest/gtest.h>

#include "noc/crossbar_network.hh"
#include "noc/interposer_network.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"

using namespace ena;

namespace {

struct Sink : NetworkEndpoint
{
    std::vector<std::pair<std::uint64_t, Tick>> arrivals;
    const EventQueue *clock = nullptr;

    void
    receivePacket(const Packet &pkt) override
    {
        arrivals.emplace_back(pkt.id, clock->curTick());
    }
};

struct NetFixture : testing::Test
{
    Simulation sim;
    Topology topo = Topology::ehp();

    std::vector<Sink> sinks;

    void
    attachAll(Network &net)
    {
        sinks.resize(topo.nodes().size());
        for (NodeId i = 0; i < sinks.size(); ++i) {
            sinks[i].clock = &sim.eventq();
            net.attach(i, &sinks[i]);
        }
    }

    Packet
    makePacket(NodeId src, NodeId dst, std::uint32_t bytes,
               std::uint64_t id = 1)
    {
        Packet p;
        p.id = id;
        p.src = src;
        p.dst = dst;
        p.bytes = bytes;
        return p;
    }

    void
    runAll()
    {
        sim.initAll();
        sim.eventq().run();
    }
};

} // anonymous namespace

TEST_F(NetFixture, InterposerDeliversPackets)
{
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    attachAll(*net);
    sim.initAll();
    net->send(makePacket(0, 5, 64, 42));
    runAll();
    ASSERT_EQ(sinks[5].arrivals.size(), 1u);
    EXPECT_EQ(sinks[5].arrivals[0].first, 42u);
    EXPECT_EQ(net->packetsSent(), 1.0);
    EXPECT_EQ(net->bytesInjected(), 64.0);
}

TEST_F(NetFixture, FartherNodesTakeLonger)
{
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    attachAll(*net);
    sim.initAll();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId near_stack = topo.nodeOf(NodeKind::MemStack, 1);
    NodeId far_stack = topo.nodeOf(NodeKind::MemStack, 7);
    EXPECT_LT(net->zeroLoadLatency(g0, near_stack, 64),
              net->zeroLoadLatency(g0, far_stack, 64));
}

TEST_F(NetFixture, SameRouterDeliveryHasNoHops)
{
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    attachAll(*net);
    sim.initAll();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm0 = topo.nodeOf(NodeKind::MemStack, 0);
    net->send(makePacket(g0, hbm0, 64));
    runAll();
    EXPECT_EQ(net->meanHops(), 0.0);
    ASSERT_EQ(sinks[hbm0].arrivals.size(), 1u);
}

TEST_F(NetFixture, ZeroLoadLatencyMatchesActualDelivery)
{
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    attachAll(*net);
    sim.initAll();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    net->send(makePacket(g0, hbm7, 64));
    runAll();
    ASSERT_EQ(sinks[hbm7].arrivals.size(), 1u);
    EXPECT_EQ(sinks[hbm7].arrivals[0].second,
              net->zeroLoadLatency(g0, hbm7, 64));
}

TEST_F(NetFixture, LinkContentionDelaysBursts)
{
    InterposerParams ip;
    ip.linkBytesPerCycle = 64;   // narrow links to force contention
    auto *net = sim.create<InterposerNetwork>("noc", topo, ip);
    attachAll(*net);
    sim.initAll();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    Tick solo = net->zeroLoadLatency(g0, hbm7, 256);
    for (std::uint64_t i = 0; i < 16; ++i)
        net->send(makePacket(g0, hbm7, 256, i));
    runAll();
    ASSERT_EQ(sinks[hbm7].arrivals.size(), 16u);
    Tick last = sinks[hbm7].arrivals.back().second;
    EXPECT_GT(last, solo + 14 * 4 * fabricCycle);
}

TEST_F(NetFixture, ByteHopsTrackDistance)
{
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    attachAll(*net);
    sim.initAll();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    std::uint32_t hops =
        topo.hopCount(topo.node(g0).router, topo.node(hbm7).router);
    net->send(makePacket(g0, hbm7, 64));
    runAll();
    EXPECT_DOUBLE_EQ(net->byteHops(), 64.0 * hops);
    EXPECT_DOUBLE_EQ(net->meanHops(), static_cast<double>(hops));
}

TEST_F(NetFixture, CrossbarUniformLatency)
{
    CrossbarParams xp;
    auto *net = sim.create<CrossbarNetwork>("xbar", topo.nodes().size(),
                                            xp);
    attachAll(*net);
    sim.initAll();
    // Distance-independent latency: nearest and farthest match.
    net->send(makePacket(0, 1, 64, 1));
    runAll();
    Tick t1 = sinks[1].arrivals[0].second;
    Tick start2 = sim.curTick();
    net->send(makePacket(0, 17, 64, 2));
    runAll();
    Tick t2 = sinks[17].arrivals[0].second - start2;
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, net->zeroLoadLatency(64));
}

TEST_F(NetFixture, CrossbarCapacitySharedGlobally)
{
    CrossbarParams xp;
    xp.aggregateBytesPerCycle = 64;   // tight fabric
    auto *net = sim.create<CrossbarNetwork>("xbar", topo.nodes().size(),
                                            xp);
    attachAll(*net);
    sim.initAll();
    // Packets between disjoint pairs still serialize on the fabric.
    for (std::uint64_t i = 0; i < 8; ++i)
        net->send(makePacket(static_cast<NodeId>(i),
                             static_cast<NodeId>(i + 8), 640, i));
    runAll();
    Tick max_arrival = 0;
    for (const Sink &s : sinks) {
        for (const auto &[id, at] : s.arrivals)
            max_arrival = std::max(max_arrival, at);
    }
    // 8 x 640 B at 64 B/cycle = 80 cycles of occupancy minimum.
    // 7 predecessors x 10 cycles occupancy + 6 cycles latency.
    EXPECT_GE(max_arrival, 76u * fabricCycle);
}

TEST_F(NetFixture, LatencyStatRecorded)
{
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    attachAll(*net);
    sim.initAll();
    net->send(makePacket(0, 9, 64));
    runAll();
    EXPECT_GT(net->meanLatencyNs(), 0.0);
}

TEST_F(NetFixture, AttachValidation)
{
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    Sink s;
    s.clock = &sim.eventq();
    net->attach(0, &s);
    EXPECT_DEATH(net->attach(0, &s), "already attached");
    Packet p = makePacket(3, 4, 64);
    EXPECT_DEATH(net->send(p), "no endpoint");
}

