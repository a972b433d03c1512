/**
 * @file
 * Chiplet-vs-monolithic study (paper Section V-A, Fig. 7).
 *
 * Builds the full event-driven EHP model — GPU chiplets with L1/L2
 * caches, wavefront-level CUs, CPU clusters, one HBM stack per chiplet,
 * and either the interposer network (chiplet mode) or a flat crossbar
 * (hypothetical monolithic EHP) — runs a synthetic kernel matched to one
 * application's profile in both modes, and reports the out-of-chiplet
 * traffic fraction and the performance relative to the monolithic
 * design.
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

#include "workloads/kernel_profile.hh"

namespace ena {

struct ChipletStudyParams
{
    int gpuChiplets = 8;
    int cpuClusters = 2;
    int cusPerChiplet = 8;          ///< scaled from 32 for speed
    int wavefrontsPerCu = 8;
    /** Floor on outstanding misses per wavefront (the per-app value
     *  derives from the kernel's MLP profile). */
    int maxOutstandingPerWf = 2;
    std::uint64_t memOpsPerWavefront = 400;
    double aggregateBwGbs = 750.0;  ///< scaled from 3 TB/s
    /** Fraction of private pages placed on the local stack (NUMA-aware
     *  OS placement; 0 = pure interleave). */
    double localPlacementFrac = 0.15;
    std::uint64_t privateBytesPerWf = 256ull << 10;
    std::uint64_t sharedBytes = 128ull << 20;
    bool cpuTraffic = true;
    std::uint64_t seed = 1;
    /** Dump the full gem5-style stat registry after the run. */
    bool dumpStats = false;
    /** Capture the stat-registry dump into ChipletRunResult::statsDump
     *  (the PDES determinism gates compare these bitwise). */
    bool captureStats = false;
    /** Use the detailed (buffered, XY-routed) router model instead of
     *  the virtual-circuit interposer approximation. */
    bool detailedNoc = false;
    /**
     * Event-queue domains for the chiplet-mode model. 1 (the default)
     * is the plain serial kernel — the oracle behind every published
     * number. Any value > 1 shards the simulation into a hub domain
     * (interposer network, dispatcher, CPU clusters) plus one domain
     * per GPU chiplet (chiplet + CUs + its HBM stack + endpoint),
     * running conservative PDES windows sized by the TSV-crossing
     * latency. Sharding makes CU-completion signals pay one lookahead
     * of interposer latency, so a sharded run is its own (slightly
     * different) timing model: its determinism gate compares pooled
     * against serial-window execution at the same domain count.
     * Ignored (forced serial) for the monolithic crossbar model.
     */
    int domains = 1;
    /** With domains > 1: execute each window's domains serially on the
     *  calling thread instead of the ThreadPool — the bitwise oracle
     *  for pooled execution. */
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
    /** Full stat-registry dump (only when captureStats is set). */
    std::string statsDump;
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
     * @p domains > 1 shards each chiplet-mode simulation into that
     * study's PDES domain layout (see ChipletStudyParams::domains).
     */
    std::vector<Fig7Row> compareAll(const std::vector<App> &apps,
                                    int domains = 1) const;
};

} // namespace ena

#endif // ENA_CORE_CHIPLET_STUDY_HH
