#include "core/chiplet_study.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "cpu/cpu_cluster.hh"
#include "gpu/compute_unit.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_chiplet.hh"
#include "gpu/mem_stack_endpoint.hh"
#include "mem/address_map.hh"
#include "mem/hbm_stack.hh"
#include "noc/crossbar_network.hh"
#include "noc/detailed_network.hh"
#include "noc/interposer_network.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

#include <iostream>

namespace ena {

ChipletStudyParams
ChipletStudyParams::forApp(App app)
{
    ChipletStudyParams p;
    switch (app) {
      case App::XSBench:
        // Giant shared lookup tables, random access: no useful NUMA
        // placement, large footprint.
        p.localPlacementFrac = 0.0;
        p.privateBytesPerWf = 2ull << 20;
        p.sharedBytes = 512ull << 20;
        break;
      case App::SNAP:
        // Structured sweeps: per-rank buffers place well and cache well.
        p.localPlacementFrac = 0.45;
        p.privateBytesPerWf = 1ull << 10;
        p.sharedBytes = 32ull << 20;
        break;
      case App::CoMD:
      case App::CoMDLJ:
        p.localPlacementFrac = 0.15;
        p.privateBytesPerWf = 256ull << 10;
        p.sharedBytes = 128ull << 20;
        break;
      case App::LULESH:
        p.localPlacementFrac = 0.10;
        p.privateBytesPerWf = 1ull << 20;
        p.sharedBytes = 256ull << 20;
        break;
      case App::MiniAMR:
        p.localPlacementFrac = 0.20;
        p.privateBytesPerWf = 512ull << 10;
        p.sharedBytes = 128ull << 20;
        break;
      case App::HPGMG:
        p.localPlacementFrac = 0.20;
        p.privateBytesPerWf = 256ull << 10;
        p.sharedBytes = 128ull << 20;
        break;
      case App::MaxFlops:
        p.localPlacementFrac = 0.25;
        p.privateBytesPerWf = 32ull << 10;
        p.sharedBytes = 16ull << 20;
        break;
    }
    return p;
}

ChipletRunResult
ChipletStudy::run(App app, const ChipletStudyParams &params,
                  bool monolithic) const
{
    const KernelProfile &profile = profileFor(app);
    Simulation sim;

    // Domain layout when sharded: 0 = hub (network, dispatcher, CPU
    // clusters), 1 + i = GPU chiplet i with its CUs, HBM stack, and
    // stack endpoint. The chiplet-local TSV fast path never leaves a
    // domain; every interposer crossing is a cross-domain channel.
    const bool sharded = !monolithic && params.domains > 1;
    if (sharded) {
        sim.setDomains(1 + params.gpuChiplets);
        sim.setSerialWindows(params.serialWindows);
    }
    auto domainOf = [&](int chiplet) { return sharded ? 1 + chiplet : 0; };

    Topology topo = Topology::ehp(params.gpuChiplets, params.cpuClusters);

    Network *network = nullptr;
    if (monolithic) {
        CrossbarParams xp;
        xp.latencyCycles = 3;
        xp.aggregateBytesPerCycle = 2048.0;  // capacity-rich on-die fabric
        network = sim.create<CrossbarNetwork>("xbar", topo.nodes().size(),
                                              xp);
    } else if (params.detailedNoc) {
        DetailedParams dn;
        dn.routerCycles = 2;
        dn.linkCycles = 1;
        dn.tsvCycles = 1;
        dn.linkBytesPerCycle = 256;
        network = sim.create<DetailedNetwork>("noc", topo, dn);
        if (sharded)
            sim.setLookahead(dn.tsvCycles * dn.cycle());
    } else {
        InterposerParams ip;
        ip.routerCycles = 2;
        ip.linkCycles = 1;
        ip.tsvCycles = 1;
        ip.linkBytesPerCycle = 256;
        network = sim.create<InterposerNetwork>("noc", topo, ip);
        if (sharded)
            sim.setLookahead(ip.tsvCycles * ip.cycle());
    }

    // Address layout: shared region at 0, per-chiplet private arenas
    // above 1 GiB (see Dispatcher).
    DispatchParams dp;
    dp.wavefrontsPerCu = params.wavefrontsPerCu;
    dp.privateBytesPerWf = params.privateBytesPerWf;
    dp.sharedBytes = params.sharedBytes;
    dp.seed = params.seed;
    auto *dispatcher =
        sim.create<Dispatcher>("dispatch", profile, dp);

    AddressMap addr_map(params.gpuChiplets);
    for (int c = 0; c < params.gpuChiplets; ++c) {
        addr_map.addRegion(dispatcher->chipletArenaBase(c),
                           dispatcher->chipletArenaSize(c), c,
                           params.localPlacementFrac);
    }

    // Memory stacks + their network endpoints.
    HbmParams hbm = HbmParams::forAggregateBandwidth(
        params.aggregateBwGbs, params.gpuChiplets);
    std::vector<HbmStack *> stacks;
    for (int i = 0; i < params.gpuChiplets; ++i) {
        Simulation::DomainScope scope(sim, domainOf(i));
        auto *stack =
            sim.create<HbmStack>(strformat("hbm%d", i), hbm);
        stacks.push_back(stack);
        NodeId node = topo.nodeOf(NodeKind::MemStack, i);
        sim.create<MemStackEndpoint>(strformat("hbm%d.port", i), node,
                                     *stack, *network);
    }

    // GPU chiplets and CUs.
    GpuChipletParams gp;
    gp.monolithic = monolithic;
    std::vector<GpuChiplet *> chiplets;
    for (int i = 0; i < params.gpuChiplets; ++i) {
        Simulation::DomainScope scope(sim, domainOf(i));
        NodeId node = topo.nodeOf(NodeKind::GpuChiplet, i);
        auto *chiplet = sim.create<GpuChiplet>(
            strformat("gpu%d", i), i, node, gp, addr_map, *network);
        chiplet->setLocalStack(i, stacks[i]);
        for (int s = 0; s < params.gpuChiplets; ++s) {
            chiplet->setStackNode(
                s, topo.nodeOf(NodeKind::MemStack, s));
        }
        chiplets.push_back(chiplet);

        ComputeUnitParams cp;
        cp.wavefrontSlots = params.wavefrontsPerCu;
        // Latency tolerance follows the kernel's measured MLP derated
        // by its latency sensitivity (irregular kernels keep fewer
        // misses in flight), spread across the wavefront slots.
        double eff_mlp = profile.memLevelParallelism *
                         (1.0 - profile.latencySensitivity);
        cp.maxOutstandingPerWf = std::max(
            params.maxOutstandingPerWf,
            static_cast<int>(eff_mlp / params.wavefrontsPerCu + 0.5));
        cp.memOpsPerWavefront = params.memOpsPerWavefront;
        for (int c = 0; c < params.cusPerChiplet; ++c) {
            auto *cu = sim.create<ComputeUnit>(
                strformat("gpu%d.cu%d", i, c), *chiplet, cp);
            dispatcher->assign(*cu, i);
        }
    }

    // CPU clusters (orchestration traffic into the shared region).
    std::vector<CpuCluster *> cpus;
    if (params.cpuTraffic) {
        for (int i = 0; i < params.cpuClusters; ++i) {
            CpuClusterParams cc;
            cc.sharedBase = 0;
            cc.sharedSize = params.sharedBytes;
            cc.seed = params.seed + 77 + i;
            NodeId node = topo.nodeOf(NodeKind::CpuCluster, i);
            auto *cpu = sim.create<CpuCluster>(
                strformat("cpu%d", i), node, cc, addr_map, *network);
            for (int s = 0; s < params.gpuChiplets; ++s) {
                cpu->setStackNode(
                    s, topo.nodeOf(NodeKind::MemStack, s));
            }
            cpus.push_back(cpu);
        }
    }

    // Run in slices until the kernel drains.
    sim.initAll();
    const Tick slice = 100 * tickPerUs;
    const int max_slices = 10000;
    int s = 0;
    for (; s < max_slices && !dispatcher->allDone(); ++s) {
        std::uint64_t ran = sim.run(sim.curTick() + slice);
        if (ran == 0 && !dispatcher->allDone())
            ENA_FATAL("chiplet study deadlocked for ", appName(app));
    }
    if (!dispatcher->allDone())
        ENA_FATAL("chiplet study did not converge for ", appName(app));
    for (CpuCluster *cpu : cpus)
        cpu->quiesce();

    ChipletRunResult r;
    r.runtimeUs = static_cast<double>(dispatcher->finishTick()) /
                  tickPerUs;
    double local = 0.0;
    double remote = 0.0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    for (GpuChiplet *c : chiplets) {
        local += c->localBytes();
        remote += c->remoteBytes();
        l2_hits += c->l2().hits();
        l2_misses += c->l2().misses();
    }
    r.remoteTrafficFrac =
        (local + remote) > 0.0 ? remote / (local + remote) : 0.0;
    r.l2HitRate =
        l2_hits + l2_misses
            ? static_cast<double>(l2_hits) / (l2_hits + l2_misses)
            : 0.0;
    r.meanHops = network->meanHops();
    r.meanNetLatencyNs = network->meanLatencyNs();
    double row_hits = 0.0;
    double row_total = 0.0;
    for (HbmStack *stack : stacks) {
        row_hits += stack->rowHitRate() * stack->bytesServed();
        row_total += stack->bytesServed();
    }
    r.hbmRowHitRate = row_total > 0.0 ? row_hits / row_total : 0.0;
    r.memOps = 0;
    r.eventsProcessed = 0;
    for (int d = 0; d < sim.numDomains(); ++d)
        r.eventsProcessed += sim.eventsProcessedIn(d);
    if (params.captureStats) {
        std::ostringstream ss;
        sim.stats().dump(ss);
        r.statsDump = ss.str();
    }

    if (params.dumpStats) {
        std::cout << "---------- " << appName(app)
                  << (monolithic ? " (monolithic)" : " (chiplet)")
                  << " stats ----------\n";
        sim.stats().dump(std::cout);
    }
    return r;
}

Fig7Row
ChipletStudy::compare(App app, const ChipletStudyParams &params) const
{
    // The chiplet and monolithic runs are independent simulations
    // (each builds its own Simulation and RNG state), so run them
    // concurrently; stat dumps stay serial to keep output readable.
    std::vector<ChipletRunResult> results;
    if (params.dumpStats) {
        results.push_back(run(app, params, false));
        results.push_back(run(app, params, true));
    } else {
        results = ThreadPool::global().parallelMap(
            2, [&](std::size_t i) { return run(app, params, i == 1); });
    }
    Fig7Row row;
    row.app = app;
    row.chiplet = results[0];
    row.monolithic = results[1];
    row.remoteTrafficPct = row.chiplet.remoteTrafficFrac * 100.0;
    row.perfVsMonolithicPct =
        row.monolithic.runtimeUs / row.chiplet.runtimeUs * 100.0;
    return row;
}

std::vector<Fig7Row>
ChipletStudy::compareAll(const std::vector<App> &apps, int domains) const
{
    // One task per (app, mode) pair: all simulations are independent,
    // and per-app results assemble in index order afterwards.
    std::vector<ChipletRunResult> runs = ThreadPool::global().parallelMap(
        2 * apps.size(), [&](std::size_t i) {
            App app = apps[i / 2];
            ChipletStudyParams p = ChipletStudyParams::forApp(app);
            p.domains = domains;
            return run(app, p, i % 2 == 1);
        });
    std::vector<Fig7Row> rows(apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a) {
        Fig7Row &row = rows[a];
        row.app = apps[a];
        row.chiplet = runs[2 * a];
        row.monolithic = runs[2 * a + 1];
        row.remoteTrafficPct = row.chiplet.remoteTrafficFrac * 100.0;
        row.perfVsMonolithicPct =
            row.monolithic.runtimeUs / row.chiplet.runtimeUs * 100.0;
    }
    return rows;
}

} // namespace ena
