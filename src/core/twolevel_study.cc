#include "core/twolevel_study.hh"

#include <memory>

#include "gpu/compute_unit.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_chiplet.hh"
#include "gpu/mem_stack_endpoint.hh"
#include "mem/address_map.hh"
#include "mem/ext_memory.hh"
#include "mem/hbm_stack.hh"
#include "mem/memory_manager.hh"
#include "noc/interposer_network.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace ena {

TwoLevelPoint
TwoLevelStudy::run(App app, const TwoLevelParams &params,
                   double capacity_fraction) const
{
    ENA_ASSERT(capacity_fraction > 0.0 && capacity_fraction <= 1.0,
               "capacity fraction must be in (0, 1]");
    const KernelProfile &profile = profileFor(app);
    Simulation sim;

    Topology topo = Topology::ehp(params.gpuChiplets, 2);
    auto *network =
        sim.create<InterposerNetwork>("noc", topo, InterposerParams{});

    DispatchParams dp;
    dp.wavefrontsPerCu = params.wavefrontsPerCu;
    dp.privateBytesPerWf = params.privateBytesPerWf;
    dp.sharedBytes = params.sharedBytes;
    dp.seed = params.seed;
    auto *dispatcher = sim.create<Dispatcher>("dispatch", profile, dp);

    AddressMap addr_map(params.gpuChiplets);

    // Footprint = every wavefront's private slice plus the shared heap.
    std::uint64_t wavefronts =
        static_cast<std::uint64_t>(params.gpuChiplets) *
        params.cusPerChiplet * params.wavefrontsPerCu;
    std::uint64_t footprint =
        wavefronts * params.privateBytesPerWf + params.sharedBytes;

    MemoryManagerParams mp;
    mp.mode = params.mode;
    mp.inPackageBytes = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(capacity_fraction *
                                   static_cast<double>(footprint)),
        mp.pageBytes);
    mp.externalBytes = footprint;
    mp.epochAccesses = 1u << 14;
    MemoryManager manager(mp);

    // External bandwidth scaled with the machine: ~1/4 of in-package,
    // as in the full-size design (0.8 TB/s vs 3 TB/s).
    ExtMemConfig ext_cfg = ExtMemConfig::dramOnly();
    ext_cfg.interfaceGbs =
        params.aggregateBwGbs * 0.25 / ext_cfg.interfaces;
    auto *ext = sim.create<ExternalMemoryNetwork>("ext", ext_cfg);

    const double stack_gbs = params.aggregateBwGbs / params.gpuChiplets;
    std::vector<HbmStack *> stacks;
    std::vector<GpuChiplet *> chiplets;
    for (int i = 0; i < params.gpuChiplets; ++i) {
        auto *stack =
            sim.create<HbmStack>(strformat("hbm%d", i), stack_gbs);
        stacks.push_back(stack);
        sim.create<MemStackEndpoint>(strformat("hbm%d.port", i),
                                     topo.nodeOf(NodeKind::MemStack, i),
                                     *stack, *network);
        auto *chiplet = sim.create<GpuChiplet>(
            strformat("gpu%d", i), i,
            topo.nodeOf(NodeKind::GpuChiplet, i), GpuChipletParams{},
            addr_map, *network);
        chiplet->setLocalStack(i, stacks[i]);
        for (int s = 0; s < params.gpuChiplets; ++s)
            chiplet->setStackNode(s, topo.nodeOf(NodeKind::MemStack, s));
        chiplet->setTwoLevelMemory(&manager, ext);
        chiplets.push_back(chiplet);

        ComputeUnitParams cp;
        cp.wavefrontSlots = params.wavefrontsPerCu;
        cp.memOpsPerWavefront = params.memOpsPerWavefront;
        for (int c = 0; c < params.cusPerChiplet; ++c) {
            auto *cu = sim.create<ComputeUnit>(
                strformat("gpu%d.cu%d", i, c), *chiplet, cp);
            dispatcher->assign(*cu, i);
        }
    }

    sim.initAll();
    const Tick slice = 200 * tickPerUs;
    for (int s = 0; s < 20000 && !dispatcher->allDone(); ++s) {
        std::uint64_t ran = sim.run(sim.curTick() + slice);
        if (ran == 0 && !dispatcher->allDone())
            ENA_FATAL("two-level study deadlocked for ", appName(app));
    }
    if (!dispatcher->allDone())
        ENA_FATAL("two-level study did not converge for ", appName(app));

    TwoLevelPoint p;
    p.capacityFraction = capacity_fraction;
    p.runtimeUs =
        static_cast<double>(dispatcher->finishTick()) / tickPerUs;
    p.achievedMissRate = 1.0 - manager.inPackageHitRate();
    return p;
}

std::vector<TwoLevelPoint>
TwoLevelStudy::sweep(App app, const TwoLevelParams &params,
                     const std::vector<double> &fractions) const
{
    ENA_ASSERT(!fractions.empty(), "empty capacity sweep");
    // Every capacity point is a self-contained simulation; sweep them
    // on the pool and normalize in index order afterwards.
    std::vector<TwoLevelPoint> out = ThreadPool::global().parallelMap(
        fractions.size(),
        [&](std::size_t i) { return run(app, params, fractions[i]); });
    double base = out.front().runtimeUs;
    for (TwoLevelPoint &p : out)
        p.normPerf = base / p.runtimeUs;
    return out;
}

} // namespace ena
