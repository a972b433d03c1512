/**
 * @file
 * EHP package thermal model (paper Section V-D, Figs. 10-11).
 *
 * Models the hottest column of the package: one GPU chiplet with its
 * 8-die 3D DRAM stack directly above, on an active interposer, capped by
 * TIM, a copper spreader, and an air-cooled sink. Per-chiplet power is
 * one eighth of the node's GPU-side breakdown; CU power concentrates in
 * an array of CU tiles (giving the Fig. 11 hot spots in the bottom DRAM
 * die), DRAM power spreads across the stack's dies.
 */

#ifndef ENA_THERMAL_PACKAGE_MODEL_HH
#define ENA_THERMAL_PACKAGE_MODEL_HH

#include <string>

#include "common/node_config.hh"
#include "power/node_power.hh"
#include "thermal/grid.hh"

namespace ena {

struct PackageThermalParams
{
    size_t gridN = 32;              ///< lateral resolution (N x N)
    double ambientC = 50.0;
    /** Per-column sink resistance (high-end air cooling shared by the
     *  whole package; one column sees ~8x the package resistance). */
    double sinkResistance = 1.8;
};

struct PackageThermalResult
{
    double peakDramC = 0.0;     ///< hottest cell across all DRAM dies
    double peakBottomDramC = 0.0;
    double peakGpuC = 0.0;
    int solverIterations = 0;
    LayerTemps bottomDram;      ///< the Fig. 11 die
};

class EhpPackageModel
{
  public:
    explicit EhpPackageModel(PackageThermalParams params = {});

    /**
     * Solve the package column for one configuration's power breakdown.
     * The DRAM limit check (85 C) is the caller's concern.
     */
    PackageThermalResult solve(const NodeConfig &cfg,
                               const PowerBreakdown &power) const;

    /** ASCII rendering of the bottom DRAM die (Fig. 11). */
    std::string heatMap(const NodeConfig &cfg,
                        const PowerBreakdown &power) const;

    const PackageThermalParams &params() const { return params_; }

    /** JEDEC refresh-doubling limit the paper checks against. */
    static constexpr double dramLimitC = 85.0;

  private:
    ThermalGrid buildGrid(const NodeConfig &cfg,
                          const PowerBreakdown &power) const;

    PackageThermalParams params_;
};

} // namespace ena

#endif // ENA_THERMAL_PACKAGE_MODEL_HH
