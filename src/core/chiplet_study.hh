/**
 * @file
 * The cycle-level EHP, and the chiplet-vs-monolithic study that runs it
 * (paper Section V-A, Fig. 7).
 *
 * EhpModel builds the full event-driven EHP in one place — GPU chiplets
 * with L1/L2 caches, wavefront-level CUs, CPU clusters, one HBM stack
 * per chiplet, and either the interposer network (chiplet mode) or a
 * flat crossbar (hypothetical monolithic EHP) — and drains a synthetic
 * kernel matched to one application's profile. ChipletStudy runs it in
 * both modes and reports the out-of-chiplet traffic fraction and the
 * performance relative to the monolithic design; TwoLevelStudy
 * (twolevel_study.hh) wires its two-level memory into the same model.
 *
 * Scale note: the simulated machine is a resource-scaled EHP (fewer CUs
 * per chiplet, proportionally less bandwidth) so the study runs in
 * seconds; the traffic split and relative timing are scale-invariant
 * for the open-loop traffic levels involved.
 */

#ifndef ENA_CORE_CHIPLET_STUDY_HH
#define ENA_CORE_CHIPLET_STUDY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/address_map.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

class CpuCluster;
class Dispatcher;
class GpuChiplet;
class HbmStack;
class Network;

/**
 * The machine both cycle-level studies simulate: the GPU chiplets and
 * their CUs, the kernel's size and footprint, the in-package bandwidth
 * and the seed. Defaults are Fig. 7's.
 */
struct EhpShape
{
    int gpuChiplets = 8;
    int cusPerChiplet = 8;          ///< scaled from 32 for speed
    int wavefrontsPerCu = 8;
    std::uint64_t memOpsPerWavefront = 400;
    double aggregateBwGbs = 750.0;  ///< scaled from 3 TB/s
    std::uint64_t privateBytesPerWf = 256ull << 10;
    std::uint64_t sharedBytes = 128ull << 20;
    std::uint64_t seed = 1;
};

/** The machine and how Fig. 7 runs it. */
struct ChipletStudyParams : EhpShape
{
    /** Floor on outstanding misses per wavefront (the per-app value
     *  derives from the kernel's MLP profile). */
    int maxOutstandingPerWf = 2;
    /** Fraction of private pages placed on the local stack (NUMA-aware
     *  OS placement; 0 = pure interleave). */
    double localPlacementFrac = 0.15;
    bool cpuTraffic = true;
    /** Use the detailed (buffered, XY-routed) router model instead of
     *  the virtual-circuit interposer approximation. */
    bool detailedNoc = false;
    /** Retired and ignored; only perfbench sets them (ROADMAP item 2). */
    int domains = 1;
    bool serialWindows = false;

    /** Per-application defaults (placement, working set). */
    static ChipletStudyParams forApp(App app);
};

/** One mode's run outcome. */
struct ChipletRunResult
{
    double runtimeUs = 0.0;
    double remoteTrafficFrac = 0.0;   ///< of post-L2 GPU traffic
    double l2HitRate = 0.0;
    double meanHops = 0.0;
    double meanNetLatencyNs = 0.0;    ///< mean packet latency
    double hbmRowHitRate = 0.0;
    std::uint64_t memOps = 0;
    std::uint64_t eventsProcessed = 0;
};

/**
 * One simulated EHP running one application's kernel, wired once for
 * both cycle-level studies. Construct it, wire anything extra into the
 * chiplets (the two-level memory), then drain() and read the parts.
 */
struct EhpModel
{
    /**
     * Build the machine of @p shape. The fabric is the crossbar when
     * @p monolithic, else the detailed router if @p detailed_noc, else
     * the virtual-circuit interposer. Each wavefront keeps up to
     * @p outstanding_per_wf misses in flight, @p local_placement_frac
     * of each chiplet's private pages sit on its own stack, and the CPU
     * clusters are built only with @p cpu_traffic.
     */
    EhpModel(App app, const EhpShape &shape, bool monolithic,
             int outstanding_per_wf, double local_placement_frac,
             bool cpu_traffic, bool detailed_noc);

    /**
     * Run in 100 us slices until the kernel drains, then stop the CPU
     * clusters' issue, and return the kernel's runtime in us. Fatal if
     * a slice runs no event before that, or if the kernel has not
     * drained after 1 s of simulated time.
     */
    double drain();

    App app;
    Simulation sim;
    Topology topo;
    AddressMap addrMap;
    Network *network = nullptr;
    Dispatcher *dispatcher = nullptr;
    std::vector<HbmStack *> stacks;       ///< one per chiplet, above it
    std::vector<GpuChiplet *> chiplets;
    std::vector<CpuCluster *> cpus;
};

/** One Fig. 7 bar pair. */
struct Fig7Row
{
    App app;
    double remoteTrafficPct = 0.0;      ///< out-of-chiplet traffic
    double perfVsMonolithicPct = 0.0;   ///< EHP perf relative to
                                        ///< monolithic EHP
    ChipletRunResult chiplet;
    ChipletRunResult monolithic;
};

class ChipletStudy
{
  public:
    ChipletStudy() = default;

    /** Run one mode. */
    ChipletRunResult run(App app, const ChipletStudyParams &params,
                         bool monolithic) const;

    /** Run both modes and compare (one Fig. 7 entry). */
    Fig7Row compare(App app, const ChipletStudyParams &params) const;

    /**
     * compare() for a whole app list with each app's default parameters
     * (ChipletStudyParams::forApp), running every (app, mode) simulation
     * on the process-wide ThreadPool. Results are identical to calling
     * compare() in a loop.
     */
    std::vector<Fig7Row> compareAll(const std::vector<App> &apps) const;
};

} // namespace ena

#endif // ENA_CORE_CHIPLET_STUDY_HH
