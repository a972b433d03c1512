/**
 * @file
 * Integration-grade unit tests for the GPU timing stack: compute units,
 * chiplet L2 + memory paths, the stack endpoint, and the dispatcher —
 * wired into a minimal two-chiplet system.
 */

#include <gtest/gtest.h>

#include "gpu/compute_unit.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_chiplet.hh"
#include "gpu/mem_stack_endpoint.hh"
#include "mem/address_map.hh"
#include "mem/hbm_stack.hh"
#include "noc/interposer_network.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"
#include "util/string_utils.hh"

using namespace ena;

namespace {

/** Minimal EHP slice: 2 GPU chiplets, one stack each, interposer NoC,
 *  pages interleaved across the stacks. */
struct MiniEhp
{
    explicit MiniEhp(bool monolithic = false)
        : topo(Topology::ehp(2, 2)), addrMap(2)
    {
        net = sim.create<InterposerNetwork>("noc", topo,
                                            InterposerParams{});
        GpuChipletParams gp;
        gp.monolithic = monolithic;
        for (int i = 0; i < 2; ++i) {
            stacks.push_back(
                sim.create<HbmStack>(strformat("hbm%d", i), 100.0));
            sim.create<MemStackEndpoint>(
                strformat("hbm%d.port", i),
                topo.nodeOf(NodeKind::MemStack, i), *stacks[i], *net);
            gpus.push_back(sim.create<GpuChiplet>(strformat("gpu%d", i), i,
                                                  topo, gp, addrMap, *net,
                                                  *stacks[i]));
        }
    }

    Simulation sim;
    Topology topo;
    AddressMap addrMap;
    InterposerNetwork *net = nullptr;
    std::vector<HbmStack *> stacks;
    std::vector<GpuChiplet *> gpus;
};

} // anonymous namespace

TEST(GpuChiplet, L2HitCompletesWithoutMemoryTraffic)
{
    MiniEhp ehp;
    ehp.sim.initAll();
    int done = 0;
    // Touch a line (miss -> fill), then access it again (hit).
    ehp.gpus[0]->requestMemory(0x1000, false, [&] { ++done; });
    ehp.sim.run();
    EXPECT_EQ(done, 1);
    double bytes_after_fill = ehp.stacks[0]->bytesServed() +
                              ehp.stacks[1]->bytesServed();
    ehp.gpus[0]->requestMemory(0x1000, false, [&] { ++done; });
    ehp.sim.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(ehp.stacks[0]->bytesServed() +
                  ehp.stacks[1]->bytesServed(),
              bytes_after_fill);
    EXPECT_EQ(ehp.gpus[0]->l2().hits(), 1u);
}

TEST(GpuChiplet, LocalMissUsesTsvPathNotNetwork)
{
    MiniEhp ehp;
    // Page 0 interleaves to stack 0 = local for chiplet 0.
    ehp.sim.initAll();
    int done = 0;
    ehp.gpus[0]->requestMemory(0x100, false, [&] { ++done; });
    ehp.sim.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(ehp.net->packetsSent(), 0.0);
    EXPECT_GT(ehp.stacks[0]->bytesServed(), 0.0);
    EXPECT_GT(ehp.gpus[0]->localBytes(), 0.0);
    EXPECT_EQ(ehp.gpus[0]->remoteBytes(), 0.0);
}

TEST(GpuChiplet, RemoteMissCrossesNetwork)
{
    MiniEhp ehp;
    ehp.sim.initAll();
    int done = 0;
    // Page 1 (addr 4096) maps to stack 1 = remote for chiplet 0.
    ehp.gpus[0]->requestMemory(4096, false, [&] { ++done; });
    ehp.sim.run();
    EXPECT_EQ(done, 1);
    EXPECT_GE(ehp.net->packetsSent(), 2.0);   // request + response
    EXPECT_GT(ehp.stacks[1]->bytesServed(), 0.0);
    EXPECT_EQ(ehp.stacks[0]->bytesServed(), 0.0);
    EXPECT_GT(ehp.gpus[0]->remoteTrafficFraction(), 0.99);
}

TEST(GpuChiplet, MonolithicModeSendsLocalTrafficThroughFabric)
{
    MiniEhp ehp(/*monolithic=*/true);
    // Monolithic mode uses the network object for every miss.
    ehp.sim.initAll();
    int done = 0;
    ehp.gpus[0]->requestMemory(0x100, false, [&] { ++done; });
    ehp.sim.run();
    EXPECT_EQ(done, 1);
    EXPECT_GE(ehp.net->packetsSent(), 2.0);
}

TEST(GpuChiplet, RemoteIsSlowerThanLocal)
{
    MiniEhp ehp;
    ehp.sim.initAll();
    Tick local_done = 0;
    ehp.gpus[0]->requestMemory(0x100, false,
                               [&] { local_done = ehp.sim.curTick(); });
    ehp.sim.run();
    Tick start = ehp.sim.curTick();
    Tick remote_done = 0;
    ehp.gpus[0]->requestMemory(4096, false,
                               [&] { remote_done = ehp.sim.curTick(); });
    ehp.sim.run();
    EXPECT_GT(remote_done - start, local_done);
}

TEST(GpuChiplet, DirtyL2EvictionsGenerateWritebackTraffic)
{
    // Chiplet 0 writes more lines than its L2 holds, all on one stack:
    // stack 0 over the TSVs, stack 1 across the interposer, or stack 0
    // through the fabric in monolithic mode. A write sends its line and
    // gets a header-only ack; a dirty eviction is posted: its line goes
    // one way, with no ack.
    struct Case
    {
        bool monolithic;
        std::uint64_t homeStack;
    };
    for (Case c : {Case{false, 0}, Case{false, 1}, Case{true, 0}}) {
        SCOPED_TRACE(testing::Message() << "monolithic " << c.monolithic
                                        << ", stack " << c.homeStack);
        MiniEhp ehp(c.monolithic);
        ehp.sim.initAll();
        const std::uint64_t lines = 40000;
        std::uint64_t done = 0;
        for (std::uint64_t i = 0; i < lines; ++i) {
            // Pages interleave over the two stacks.
            std::uint64_t page = i / 64 * 2 + c.homeStack;
            ehp.gpus[0]->requestMemory(page * 4096 + i % 64 * lineBytes,
                                       true, [&] { ++done; });
            ehp.sim.run();
        }
        EXPECT_EQ(done, lines);

        const GpuChiplet &gpu = *ehp.gpus[0];
        const std::uint64_t wbs = gpu.l2().writebacks();
        EXPECT_GT(wbs, 0u);
        const std::uint64_t bytes =
            (lineBytes + headerBytes) * lines + lineBytes * wbs;
        const bool tsv = c.homeStack == 0 && !c.monolithic;
        EXPECT_EQ(c.homeStack == 0 ? gpu.localBytes() : gpu.remoteBytes(),
                  bytes);
        EXPECT_EQ(c.homeStack == 0 ? gpu.remoteBytes() : gpu.localBytes(),
                  0u);
        EXPECT_EQ(ehp.stacks[c.homeStack]->bytesServed(),
                  lineBytes * (lines + wbs));
        // Request and ack per write, one packet per writeback.
        EXPECT_EQ(ehp.net->packetsSent(), tsv ? 0 : 2 * lines + wbs);
        EXPECT_EQ(ehp.net->bytesInjected(), tsv ? 0 : bytes);
        // A write takes three events (up, HBM, down); a writeback two.
        EXPECT_EQ(ehp.sim.eventq().eventsProcessed(), 3 * lines + 2 * wbs);
    }
}

TEST(ComputeUnit, WavefrontsRetireAfterQuota)
{
    MiniEhp ehp;
    ComputeUnitParams cp;
    cp.memOpsPerWavefront = 50;
    auto *cu = ehp.sim.create<ComputeUnit>("cu0", *ehp.gpus[0], cp);

    StreamLayout layout;
    layout.privateBase = 0;
    layout.privateSize = 1ull << 20;
    for (int w = 0; w < 2; ++w) {
        cu->addWavefront(std::make_unique<TraceGenerator>(
            profileFor(App::CoMD), layout, 100 + w));
    }
    bool done = false;
    cu->setDoneCallback([&] { done = true; });
    ehp.sim.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(cu->done());
    // Each issued memory op accesses the L1 exactly once.
    EXPECT_EQ(cu->l1().hits() + cu->l1().misses(), 100u);
}

TEST(ComputeUnit, L1FiltersSequentialReuse)
{
    MiniEhp ehp;
    ComputeUnitParams cp;
    cp.memOpsPerWavefront = 400;
    auto *cu = ehp.sim.create<ComputeUnit>("cu0", *ehp.gpus[0], cp);
    StreamLayout layout;
    layout.privateBase = 0;
    layout.privateSize = 2048;   // 32 lines: loops inside the L1
    cu->addWavefront(std::make_unique<TraceGenerator>(
        profileFor(App::SNAP), layout, 9));
    ehp.sim.run();
    EXPECT_TRUE(cu->done());
    EXPECT_GT(cu->l1().hitRate(), 0.5);
}

TEST(ComputeUnit, MoreWavefrontsFinishFasterPerOp)
{
    auto runtime_per_op = [](int wavefronts) {
        MiniEhp ehp;
        ComputeUnitParams cp;
        cp.memOpsPerWavefront = 200;
        auto *cu =
            ehp.sim.create<ComputeUnit>("cu0", *ehp.gpus[0], cp);
        StreamLayout layout;
        layout.privateBase = 0;
        layout.privateSize = 8ull << 20;
        for (int w = 0; w < wavefronts; ++w) {
            cu->addWavefront(std::make_unique<TraceGenerator>(
                profileFor(App::XSBench), layout, 40 + w));
        }
        ehp.sim.run();
        EXPECT_TRUE(cu->done());
        return static_cast<double>(ehp.sim.curTick()) /
               (200.0 * wavefronts);
    };
    // Latency hiding: with more wavefronts the per-op cost drops.
    EXPECT_LT(runtime_per_op(8), runtime_per_op(1) * 0.5);
}

TEST(Dispatcher, AssignsAndTracksCompletion)
{
    MiniEhp ehp;
    DispatchParams dp;
    dp.wavefrontsPerCu = 4;
    auto *dispatcher = ehp.sim.create<Dispatcher>(
        "disp", profileFor(App::CoMD), dp);
    ComputeUnitParams cp;
    cp.memOpsPerWavefront = 30;
    for (int c = 0; c < 2; ++c) {
        for (int g = 0; g < 2; ++g) {
            auto *cu = ehp.sim.create<ComputeUnit>(
                strformat("gpu%d.cu%d", g, c), *ehp.gpus[g], cp);
            dispatcher->assign(*cu, g);
        }
    }
    EXPECT_FALSE(dispatcher->allDone());
    ehp.sim.run();
    EXPECT_TRUE(dispatcher->allDone());
    EXPECT_GT(dispatcher->finishTick(), 0u);
    EXPECT_LE(dispatcher->finishTick(), ehp.sim.curTick());
}

TEST(Dispatcher, ArenasAreDisjointAcrossChiplets)
{
    MiniEhp ehp;
    DispatchParams dp;
    auto *d = ehp.sim.create<Dispatcher>("disp",
                                         profileFor(App::CoMD), dp);
    std::uint64_t b0 = d->chipletArenaBase(0);
    std::uint64_t b1 = d->chipletArenaBase(1);
    EXPECT_GE(b1, b0 + d->chipletArenaSize(0));
}

TEST(GpuChipletDeathTest, AddressMapWiderThanTheTopologyPanics)
{
    // Stacks 2 and 3 of this map have no network node to send to.
    MiniEhp ehp;
    AddressMap four_stacks(4);
    EXPECT_DEATH(ehp.sim.create<GpuChiplet>("gpu9", 0, ehp.topo,
                                            GpuChipletParams{}, four_stacks,
                                            *ehp.net, *ehp.stacks[0]),
                 "address map names stacks the topology lacks");
}
