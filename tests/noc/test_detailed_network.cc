/**
 * @file
 * Unit tests for the detailed (buffered, XY-routed) interposer model.
 */

#include <gtest/gtest.h>

#include "noc/detailed_network.hh"
#include "noc/interposer_network.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"

using namespace ena;

namespace {

struct Sink : NetworkEndpoint
{
    const EventQueue *clock = nullptr;
    std::vector<std::pair<std::uint64_t, Tick>> arrivals;

    void
    receivePacket(const Packet &pkt) override
    {
        arrivals.emplace_back(pkt.id, clock->curTick());
    }
};

struct DetailedFixture : testing::Test
{
    Simulation sim;
    Topology topo = Topology::ehp();
    std::vector<Sink> sinks;

    DetailedNetwork *
    build(DetailedParams dp = {})
    {
        auto *net = sim.create<DetailedNetwork>("dnoc", topo, dp);
        sinks.resize(topo.nodes().size());
        for (NodeId i = 0; i < sinks.size(); ++i) {
            sinks[i].clock = &sim.eventq();
            net->attach(i, &sinks[i]);
        }
        sim.initAll();
        return net;
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
};

} // anonymous namespace

TEST_F(DetailedFixture, DeliversAcrossTheMesh)
{
    DetailedNetwork *net = build();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    net->send(makePacket(g0, hbm7, 64, 99));
    sim.run();
    ASSERT_EQ(sinks[hbm7].arrivals.size(), 1u);
    EXPECT_EQ(sinks[hbm7].arrivals[0].first, 99u);
}

TEST_F(DetailedFixture, XyHopCountMatchesShortestPath)
{
    DetailedNetwork *net = build();
    // XY routes on a 2xC mesh are shortest paths: walked hop count
    // must equal the BFS distance for every router pair.
    for (std::uint32_t a = 0; a < topo.numRouters(); ++a) {
        for (std::uint32_t b = 0; b < topo.numRouters(); ++b) {
            if (a == b)
                continue;
            std::uint32_t at = a;
            std::uint32_t steps = 0;
            while (at != b) {
                at = net->nextHopXY(at, b);
                ++steps;
                ASSERT_LE(steps, topo.numRouters());
            }
            EXPECT_EQ(steps, topo.hopCount(a, b));
        }
    }
}

TEST_F(DetailedFixture, RecordsHops)
{
    DetailedNetwork *net = build();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    std::uint32_t expect =
        topo.hopCount(topo.node(g0).router, topo.node(hbm7).router);
    net->send(makePacket(g0, hbm7, 64));
    sim.run();
    EXPECT_DOUBLE_EQ(net->meanHops(), static_cast<double>(expect));
}

TEST_F(DetailedFixture, TinyBuffersStallButStillDeliver)
{
    DetailedParams dp;
    dp.bufferPackets = 1;
    dp.linkBytesPerCycle = 64;
    DetailedNetwork *net = build(dp);
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    for (std::uint64_t i = 0; i < 64; ++i)
        net->send(makePacket(g0, hbm7, 256, i));
    sim.run();
    EXPECT_EQ(sinks[hbm7].arrivals.size(), 64u);
    EXPECT_GT(net->bufferStalls(), 0.0);
}

TEST_F(DetailedFixture, BidirectionalFloodDrainsWithoutDeadlock)
{
    // Opposing flows through the same routers: the per-input-port
    // buffering must avoid the shared-pool deadlock.
    DetailedParams dp;
    dp.bufferPackets = 2;
    DetailedNetwork *net = build(dp);
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId g7 = topo.nodeOf(NodeKind::GpuChiplet, 7);
    NodeId hbm0 = topo.nodeOf(NodeKind::MemStack, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    for (std::uint64_t i = 0; i < 128; ++i) {
        net->send(makePacket(g0, hbm7, 256, i));
        net->send(makePacket(g7, hbm0, 256, 1000 + i));
    }
    sim.run();
    EXPECT_EQ(sinks[hbm7].arrivals.size(), 128u);
    EXPECT_EQ(sinks[hbm0].arrivals.size(), 128u);
}

TEST_F(DetailedFixture, CongestionSlowsTail)
{
    DetailedNetwork *net = build();
    NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
    NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
    net->send(makePacket(g0, hbm7, 256, 0));
    sim.run();
    Tick solo = sinks[hbm7].arrivals[0].second;
    for (std::uint64_t i = 1; i <= 32; ++i)
        net->send(makePacket(g0, hbm7, 256, i));
    sim.run();
    Tick last = sinks[hbm7].arrivals.back().second;
    EXPECT_GT(last - solo, solo);
}

TEST_F(DetailedFixture, MoreBuffersNeverSlowTotalDrain)
{
    auto drain_time = [&](int buffers) {
        Simulation local;
        DetailedParams dp;
        dp.bufferPackets = buffers;
        auto *net = local.create<DetailedNetwork>("dn", topo, dp);
        std::vector<Sink> local_sinks(topo.nodes().size());
        for (NodeId i = 0; i < local_sinks.size(); ++i) {
            local_sinks[i].clock = &local.eventq();
            net->attach(i, &local_sinks[i]);
        }
        local.initAll();
        NodeId g0 = topo.nodeOf(NodeKind::GpuChiplet, 0);
        NodeId hbm7 = topo.nodeOf(NodeKind::MemStack, 7);
        for (std::uint64_t i = 0; i < 64; ++i)
            net->send(makePacket(g0, hbm7, 256, i));
        local.run();
        return local.curTick();
    };
    EXPECT_LE(drain_time(16), drain_time(1));
}

// A packet's latency runs from send() to delivery on both interposer
// models. The detailed one forwards hop by hop after send() returns,
// so it must not time the trip from the final router's departure.
TEST(NetworkLatency, MeanLatencyRunsFromSendToDelivery)
{
    const Topology topo = Topology::ehp(8, 2);
    const NodeId last = static_cast<NodeId>(topo.nodes().size() - 1);
    const Tick sent = 5 * tickPerNs;
    auto check = [&](Simulation &sim, Network &net) {
        std::vector<Sink> sinks(topo.nodes().size());
        for (NodeId i = 0; i < sinks.size(); ++i) {
            sinks[i].clock = &sim.eventq();
            net.attach(i, &sinks[i]);
        }
        Packet p;
        p.src = 0;
        p.dst = last;
        p.bytes = 64;
        sim.eventq().scheduleLambda(sent, [&net, p] { net.send(p); });
        sim.run();
        ASSERT_EQ(sinks[last].arrivals.size(), 1u);
        double trip_ns =
            static_cast<double>(sinks[last].arrivals[0].second - sent) /
            tickPerNs;
        EXPECT_DOUBLE_EQ(net.meanLatencyNs(), trip_ns);
    };
    Simulation a;
    check(a, *a.create<InterposerNetwork>("noc", topo, InterposerParams{}));
    Simulation b;
    check(b, *b.create<DetailedNetwork>("dnoc", topo, DetailedParams{}));
}

// The two models share one link model: a lone packet crosses either in
// the virtual-circuit model's zero-load latency, between every pair of
// nodes, at every link width and packet size.
TEST(NetworkLatency, LonePacketsTakeTheZeroLoadLatencyOnBothModels)
{
    const Topology topo = Topology::ehp();
    const auto nodes = static_cast<NodeId>(topo.nodes().size());
    auto trip = [&](Simulation &sim, Network &net, NodeId src, NodeId dst,
                    std::uint32_t bytes) {
        std::vector<Sink> sinks(nodes);
        for (NodeId i = 0; i < nodes; ++i) {
            sinks[i].clock = &sim.eventq();
            net.attach(i, &sinks[i]);
        }
        Packet p;
        p.src = src;
        p.dst = dst;
        p.bytes = bytes;
        net.send(p);
        sim.run();
        EXPECT_EQ(sinks[dst].arrivals.size(), 1u);
        return sinks[dst].arrivals.empty() ? Tick(0)
                                           : sinks[dst].arrivals[0].second;
    };
    for (std::uint32_t width : {64u, 256u}) {
        InterposerParams ip;
        ip.linkBytesPerCycle = width;
        DetailedParams dp;
        dp.linkBytesPerCycle = width;
        for (std::uint32_t bytes : {16u, 64u, 256u, 1000u}) {
            for (NodeId src = 0; src < nodes; ++src) {
                for (NodeId dst = 0; dst < nodes; ++dst) {
                    if (src == dst)
                        continue;
                    SCOPED_TRACE(testing::Message()
                                 << width << " B/cycle, " << bytes
                                 << " B, " << src << " -> " << dst);
                    Simulation a;
                    auto *vc = a.create<InterposerNetwork>("noc", topo, ip);
                    const Tick expect = vc->zeroLoadLatency(src, dst, bytes);
                    EXPECT_EQ(trip(a, *vc, src, dst, bytes), expect);
                    Simulation b;
                    EXPECT_EQ(trip(b,
                                   *b.create<DetailedNetwork>("dnoc", topo,
                                                              dp),
                                   src, dst, bytes),
                              expect);
                }
            }
        }
    }
}
