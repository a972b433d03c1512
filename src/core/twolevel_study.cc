#include "core/twolevel_study.hh"

#include <algorithm>
#include <cstdint>

#include "gpu/compute_unit.hh"
#include "gpu/gpu_chiplet.hh"
#include "mem/ext_memory.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ena {

TwoLevelParams::TwoLevelParams()
{
    cusPerChiplet = 4;
    wavefrontsPerCu = 4;
    memOpsPerWavefront = 500;
    aggregateBwGbs = 400.0;
    privateBytesPerWf = 1ull << 20;
    sharedBytes = 32ull << 20;
    seed = 21;
}

TwoLevelPoint
TwoLevelStudy::run(App app, const TwoLevelParams &params,
                   double capacity_fraction) const
{
    ENA_ASSERT(capacity_fraction > 0.0 && capacity_fraction <= 1.0,
               "capacity fraction must be in (0, 1]");
    // No page placement and no CPU traffic: every page interleaves and
    // only the kernel reaches memory.
    EhpModel ehp(app, params, /*monolithic=*/false,
                 ComputeUnitParams{}.maxOutstandingPerWf,
                 /*local_placement_frac=*/0.0, /*cpu_traffic=*/false,
                 /*detailed_noc=*/false);

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
    auto *ext = ehp.sim.create<ExternalMemoryNetwork>("ext", ext_cfg);
    for (GpuChiplet *chiplet : ehp.chiplets)
        chiplet->setTwoLevelMemory(&manager, ext);

    TwoLevelPoint p;
    p.capacityFraction = capacity_fraction;
    p.runtimeUs = ehp.drain();
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
