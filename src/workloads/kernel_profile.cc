#include "workloads/kernel_profile.hh"

#include <array>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

namespace {

/**
 * Calibrated kernel parameters. Anchors from the paper:
 *  - MaxFlops reaches 18.6 DP teraflops at 320 CUs / 1 GHz (91% of the
 *    20.5 TF peak with 64 DP flops per CU-clock), is insensitive to
 *    memory bandwidth, and issues almost no memory traffic.
 *  - CoMD is "balanced": performance plateaus past a knee; per Table II
 *    its standalone optimum trades CUs for frequency (192 CUs @ 1.5 GHz),
 *    i.e. sub-linear CU scaling but strong frequency scaling.
 *  - SNAP's optimum is the opposite corner (384 CUs @ 700 MHz): linear CU
 *    scaling, weak frequency scaling.
 *  - LULESH/MiniAMR/XSBench degrade past their knees (cache thrash /
 *    memory contention); LULESH is the most latency-sensitive (irregular
 *    accesses) and the most compressible (Fig. 12 discussion).
 *  - Off-package traffic fractions span 46%..89% (Section V-B).
 */
const std::array<KernelProfile, 8> profiles = {{
    {
        App::MaxFlops, AppCategory::ComputeIntensive,
        "Measures maximum FP throughput",
        /*ai=*/4000.0, /*eff=*/0.91, /*sigma=*/1.0, /*phi=*/1.0,
        /*knee=*/10.0, /*alpha=*/0.0, /*latSens=*/0.02, /*mlp=*/4.0, /*satBw=*/100.0,
        /*extFrac=*/0.46, /*footprintGb=*/2.0, /*writeFrac=*/0.05,
        /*compress=*/1.05,
        /*cuIdle=*/0.30,
        /*spatial=*/0.98, /*computePerMemByte=*/60.0, /*shared=*/0.05,
    },
    {
        App::CoMD, AppCategory::Balanced,
        "Molecular-dynamics algorithms (Embedded Atom)",
        /*ai=*/5.8, /*eff=*/0.74, /*sigma=*/0.82, /*phi=*/1.05,
        /*knee=*/0.055, /*alpha=*/60.0, /*latSens=*/0.25, /*mlp=*/40.0, /*satBw=*/8.0,
        /*extFrac=*/0.52, /*footprintGb=*/220.0, /*writeFrac=*/0.25,
        /*compress=*/1.25,
        /*cuIdle=*/0.28,
        /*spatial=*/0.80, /*computePerMemByte=*/1.4, /*shared=*/0.20,
    },
    {
        App::CoMDLJ, AppCategory::Balanced,
        "Molecular-dynamics algorithms (Lennard-Jones)",
        /*ai=*/6.6, /*eff=*/0.79, /*sigma=*/0.86, /*phi=*/1.0,
        /*knee=*/0.060, /*alpha=*/50.0, /*latSens=*/0.22, /*mlp=*/36.0, /*satBw=*/8.0,
        /*extFrac=*/0.50, /*footprintGb=*/220.0, /*writeFrac=*/0.25,
        /*compress=*/1.20,
        /*cuIdle=*/0.28,
        /*spatial=*/0.82, /*computePerMemByte=*/1.6, /*shared=*/0.20,
    },
    {
        App::HPGMG, AppCategory::Balanced,
        "Ranks HPC systems (geometric multigrid)",
        /*ai=*/3.6, /*eff=*/0.56, /*sigma=*/0.97, /*phi=*/0.85,
        /*knee=*/0.050, /*alpha=*/30.0, /*latSens=*/0.35, /*mlp=*/32.0, /*satBw=*/6.5,
        /*extFrac=*/0.66, /*footprintGb=*/500.0, /*writeFrac=*/0.33,
        /*compress=*/1.40,
        /*cuIdle=*/0.30,
        /*spatial=*/0.90, /*computePerMemByte=*/0.9, /*shared=*/0.30,
    },
    {
        App::LULESH, AppCategory::MemoryIntensive,
        "Hydrodynamic simulation",
        /*ai=*/1.15, /*eff=*/0.50, /*sigma=*/0.93, /*phi=*/0.95,
        /*knee=*/0.062, /*alpha=*/70.0, /*latSens=*/0.75, /*mlp=*/29.0, /*satBw=*/3.6,
        /*extFrac=*/0.75, /*footprintGb=*/640.0, /*writeFrac=*/0.35,
        /*compress=*/1.60,
        /*cuIdle=*/0.28,
        /*spatial=*/0.55, /*computePerMemByte=*/0.3, /*shared=*/0.25,
    },
    {
        App::MiniAMR, AppCategory::MemoryIntensive,
        "3D stencil computation with adaptive mesh refinement",
        /*ai=*/0.95, /*eff=*/0.46, /*sigma=*/0.96, /*phi=*/1.0,
        /*knee=*/0.058, /*alpha=*/64.0, /*latSens=*/0.45, /*mlp=*/17.0, /*satBw=*/3.6,
        /*extFrac=*/0.80, /*footprintGb=*/700.0, /*writeFrac=*/0.40,
        /*compress=*/1.50,
        /*cuIdle=*/0.28,
        /*spatial=*/0.85, /*computePerMemByte=*/0.25, /*shared=*/0.30,
    },
    {
        App::XSBench, AppCategory::MemoryIntensive,
        "Monte Carlo particle transport simulation",
        /*ai=*/0.72, /*eff=*/0.42, /*sigma=*/0.95, /*phi=*/1.05,
        /*knee=*/0.057, /*alpha=*/76.0, /*latSens=*/0.60, /*mlp=*/18.0, /*satBw=*/3.6,
        /*extFrac=*/0.89, /*footprintGb=*/800.0, /*writeFrac=*/0.05,
        /*compress=*/1.10,
        /*cuIdle=*/0.26,
        /*spatial=*/0.15, /*computePerMemByte=*/0.2, /*shared=*/0.40,
    },
    {
        App::SNAP, AppCategory::MemoryIntensive,
        "Discrete ordinates neutral particle transport application",
        /*ai=*/1.5, /*eff=*/0.52, /*sigma=*/1.0, /*phi=*/0.62,
        /*knee=*/0.054, /*alpha=*/41.0, /*latSens=*/0.40, /*mlp=*/16.0, /*satBw=*/3.6,
        /*extFrac=*/0.70, /*footprintGb=*/560.0, /*writeFrac=*/0.35,
        /*compress=*/1.30,
        /*cuIdle=*/0.30,
        /*spatial=*/0.92, /*computePerMemByte=*/0.4, /*shared=*/0.15,
    },
}};

} // anonymous namespace

const std::vector<App> &
allApps()
{
    static const std::vector<App> apps = {
        App::MaxFlops, App::CoMD,    App::CoMDLJ,  App::HPGMG,
        App::LULESH,   App::MiniAMR, App::XSBench, App::SNAP,
    };
    return apps;
}

std::string
appName(App app)
{
    switch (app) {
      case App::MaxFlops: return "MaxFlops";
      case App::CoMD: return "CoMD";
      case App::CoMDLJ: return "CoMD-LJ";
      case App::HPGMG: return "HPGMG";
      case App::LULESH: return "LULESH";
      case App::MiniAMR: return "MiniAMR";
      case App::XSBench: return "XSBench";
      case App::SNAP: return "SNAP";
    }
    ENA_PANIC("unknown App enum value");
}

Expected<App>
tryAppFromName(const std::string &name)
{
    for (App a : allApps()) {
        if (equalsIgnoreCase(name, appName(a)))
            return a;
    }
    // Accept the underscore spelling of CoMD-LJ as well.
    if (equalsIgnoreCase(name, "comd_lj") || equalsIgnoreCase(name, "comdlj"))
        return App::CoMDLJ;
    return Status::invalidArgument("unknown application '", name, "'");
}

App
appFromName(const std::string &name)
{
    return unwrapOrFatal(tryAppFromName(name));
}

std::string
categoryName(AppCategory c)
{
    switch (c) {
      case AppCategory::ComputeIntensive: return "Compute Intensive";
      case AppCategory::Balanced: return "Balanced";
      case AppCategory::MemoryIntensive: return "Memory Intensive";
    }
    ENA_PANIC("unknown AppCategory enum value");
}

const KernelProfile &
profileFor(App app)
{
    for (const KernelProfile &p : profiles) {
        if (p.app == app)
            return p;
    }
    ENA_PANIC("no profile for app ", static_cast<int>(app));
}

std::vector<KernelProfile>
allProfiles()
{
    return std::vector<KernelProfile>(profiles.begin(), profiles.end());
}

} // namespace ena
