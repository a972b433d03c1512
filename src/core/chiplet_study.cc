#include "core/chiplet_study.hh"

#include <algorithm>

#include "cpu/cpu_cluster.hh"
#include "gpu/compute_unit.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_chiplet.hh"
#include "gpu/mem_stack_endpoint.hh"
#include "mem/hbm_stack.hh"
#include "noc/crossbar_network.hh"
#include "noc/detailed_network.hh"
#include "noc/interposer_network.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

/** CPU clusters on the interposer, each a CpuCluster of 16 cores. */
constexpr int cpuClusters = 2;

/** Fig. 7's row for @p app from its chiplet and monolithic runs. */
Fig7Row
fig7Row(App app, const ChipletRunResult &chiplet,
        const ChipletRunResult &monolithic)
{
    Fig7Row row;
    row.app = app;
    row.chiplet = chiplet;
    row.monolithic = monolithic;
    row.remoteTrafficPct = chiplet.remoteTrafficFrac * 100.0;
    row.perfVsMonolithicPct =
        monolithic.runtimeUs / chiplet.runtimeUs * 100.0;
    return row;
}

} // anonymous namespace

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

EhpModel::EhpModel(App app, const EhpShape &shape, bool monolithic,
                   int outstanding_per_wf, double local_placement_frac,
                   bool cpu_traffic, bool detailed_noc)
    : app(app), topo(Topology::ehp(shape.gpuChiplets, cpuClusters)),
      addrMap(shape.gpuChiplets)
{
    if (monolithic) {
        CrossbarParams xp;
        xp.latencyCycles = 3;
        xp.aggregateBytesPerCycle = 2048.0;  // capacity-rich on-die fabric
        network = sim.create<CrossbarNetwork>("xbar", topo.nodes().size(),
                                              xp);
    } else if (detailed_noc) {
        network = sim.create<DetailedNetwork>("noc", topo, DetailedParams{});
    } else {
        network =
            sim.create<InterposerNetwork>("noc", topo, InterposerParams{});
    }

    DispatchParams dp;
    dp.wavefrontsPerCu = shape.wavefrontsPerCu;
    dp.privateBytesPerWf = shape.privateBytesPerWf;
    dp.sharedBytes = shape.sharedBytes;
    dp.seed = shape.seed;
    dispatcher = sim.create<Dispatcher>("dispatch", profileFor(app), dp);

    // NUMA-aware placement of each chiplet's private arena. A fraction
    // of 0 maps every page as no region does, so add none and leave
    // stackFor() no region to scan.
    if (local_placement_frac != 0.0) {
        for (int c = 0; c < shape.gpuChiplets; ++c) {
            addrMap.addRegion(dispatcher->chipletArenaBase(c),
                              dispatcher->chipletArenaSize(c), c,
                              local_placement_frac);
        }
    }

    // Memory stacks + their network endpoints.
    const double stack_gbs = shape.aggregateBwGbs / shape.gpuChiplets;
    for (int i = 0; i < shape.gpuChiplets; ++i) {
        stacks.push_back(
            sim.create<HbmStack>(strformat("hbm%d", i), stack_gbs));
        sim.create<MemStackEndpoint>(strformat("hbm%d.port", i),
                                     topo.nodeOf(NodeKind::MemStack, i),
                                     *stacks[i], *network);
    }

    // GPU chiplets and their CUs, chiplet by chiplet: the CUs start up
    // in this order.
    GpuChipletParams gp;
    gp.monolithic = monolithic;
    ComputeUnitParams cp;
    cp.maxOutstandingPerWf = outstanding_per_wf;
    cp.memOpsPerWavefront = shape.memOpsPerWavefront;
    for (int i = 0; i < shape.gpuChiplets; ++i) {
        chiplets.push_back(sim.create<GpuChiplet>(
            strformat("gpu%d", i), i, topo, gp, addrMap, *network,
            *stacks[i]));
        for (int c = 0; c < shape.cusPerChiplet; ++c) {
            auto *cu = sim.create<ComputeUnit>(
                strformat("gpu%d.cu%d", i, c), *chiplets[i], cp);
            dispatcher->assign(*cu, i);
        }
    }

    // CPU clusters (orchestration traffic into the shared region),
    // started after the CUs.
    if (cpu_traffic) {
        for (int i = 0; i < cpuClusters; ++i) {
            CpuClusterParams cc;
            cc.sharedSize = shape.sharedBytes;
            cc.seed = shape.seed + 77 + i;
            cpus.push_back(sim.create<CpuCluster>(
                strformat("cpu%d", i), i, topo, cc, addrMap, *network));
        }
    }
}

double
EhpModel::drain()
{
    sim.initAll();
    const Tick slice = 100 * tickPerUs;
    const int max_slices = 10000;
    for (int s = 0; s < max_slices && !dispatcher->allDone(); ++s) {
        std::uint64_t ran = sim.run(sim.curTick() + slice);
        if (ran == 0 && !dispatcher->allDone())
            ENA_FATAL("EHP simulation deadlocked for ", appName(app));
    }
    if (!dispatcher->allDone())
        ENA_FATAL("EHP simulation did not converge for ", appName(app));
    for (CpuCluster *cpu : cpus)
        cpu->quiesce();
    return static_cast<double>(dispatcher->finishTick()) / tickPerUs;
}

ChipletRunResult
ChipletStudy::run(App app, const ChipletStudyParams &params,
                  bool monolithic) const
{
    // Latency tolerance follows the kernel's measured MLP derated by
    // its latency sensitivity (irregular kernels keep fewer misses in
    // flight), spread across the wavefront slots.
    const KernelProfile &profile = profileFor(app);
    double eff_mlp =
        profile.memLevelParallelism * (1.0 - profile.latencySensitivity);
    EhpModel ehp(app, params, monolithic,
                 std::max(params.maxOutstandingPerWf,
                          static_cast<int>(
                              eff_mlp / params.wavefrontsPerCu + 0.5)),
                 params.localPlacementFrac, params.cpuTraffic,
                 params.detailedNoc);

    ChipletRunResult r;
    r.runtimeUs = ehp.drain();
    double local = 0.0;
    double remote = 0.0;
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    for (GpuChiplet *c : ehp.chiplets) {
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
    r.meanHops = ehp.network->meanHops();
    r.meanNetLatencyNs = ehp.network->meanLatencyNs();
    double row_hits = 0.0;
    double row_total = 0.0;
    for (HbmStack *stack : ehp.stacks) {
        row_hits += stack->rowHitRate() * stack->bytesServed();
        row_total += stack->bytesServed();
    }
    r.hbmRowHitRate = row_total > 0.0 ? row_hits / row_total : 0.0;
    r.eventsProcessed = ehp.sim.eventq().eventsProcessed();
    return r;
}

Fig7Row
ChipletStudy::compare(App app, const ChipletStudyParams &params) const
{
    // The chiplet and monolithic runs are independent simulations
    // (each builds its own Simulation and RNG state), so run them
    // concurrently.
    std::vector<ChipletRunResult> results = ThreadPool::global().parallelMap(
        2, [&](std::size_t i) { return run(app, params, i == 1); });
    return fig7Row(app, results[0], results[1]);
}

std::vector<Fig7Row>
ChipletStudy::compareAll(const std::vector<App> &apps) const
{
    // One task per (app, mode) pair: all simulations are independent,
    // and per-app results assemble in index order afterwards.
    std::vector<ChipletRunResult> runs = ThreadPool::global().parallelMap(
        2 * apps.size(), [&](std::size_t i) {
            App app = apps[i / 2];
            return run(app, ChipletStudyParams::forApp(app), i % 2 == 1);
        });
    std::vector<Fig7Row> rows;
    for (std::size_t a = 0; a < apps.size(); ++a)
        rows.push_back(fig7Row(apps[a], runs[2 * a], runs[2 * a + 1]));
    return rows;
}

} // namespace ena
