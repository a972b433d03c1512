/**
 * @file
 * Cycle-level two-level memory study (paper Sections II-B3 / V-B).
 *
 * Builds the event-driven EHP (EhpModel, chiplet_study.hh) with the
 * software-managed MemoryManager and the external-memory network wired
 * behind the chiplet L2s, then shrinks the in-package capacity relative
 * to the kernel's footprint. The achieved miss rate and the runtime
 * cost emerge from the simulation — a cross-check of the analytic
 * Fig. 8 model from below.
 */

#ifndef ENA_CORE_TWOLEVEL_STUDY_HH
#define ENA_CORE_TWOLEVEL_STUDY_HH

#include <vector>

#include "core/chiplet_study.hh"
#include "mem/memory_manager.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/**
 * The EHP's shape with this study's defaults: 4 CUs of 4 wavefronts per
 * chiplet, 500 memory ops per wavefront, 400 GB/s, 1 MiB private slices
 * and a 32 MiB shared heap, seed 21.
 */
struct TwoLevelParams : EhpShape
{
    TwoLevelParams();

    /** Management policy for the in-package level (Section II-B3). */
    MemMode mode = MemMode::SoftwareManaged;
};

/** One capacity point's outcome. */
struct TwoLevelPoint
{
    double capacityFraction = 0.0;   ///< in-package / footprint
    double achievedMissRate = 0.0;   ///< post-L2 accesses off-package
    double runtimeUs = 0.0;
    double normPerf = 0.0;           ///< vs the all-in-package run
};

class TwoLevelStudy
{
  public:
    TwoLevelStudy() = default;

    /** Run one capacity point. */
    TwoLevelPoint run(App app, const TwoLevelParams &params,
                      double capacity_fraction) const;

    /** Sweep capacity fractions (normalized to the first entry). */
    std::vector<TwoLevelPoint> sweep(
        App app, const TwoLevelParams &params,
        const std::vector<double> &fractions) const;
};

} // namespace ena

#endif // ENA_CORE_TWOLEVEL_STUDY_HH
