/**
 * @file
 * Thermal assessment driver (paper Section V-D, Figs. 10-11): peak
 * in-package DRAM temperature per application at the best-mean and
 * best-per-application configurations, plus the bottom-DRAM-die heat
 * maps of Fig. 11.
 */

#ifndef ENA_CORE_THERMAL_STUDY_HH
#define ENA_CORE_THERMAL_STUDY_HH

#include <string>
#include <vector>

#include "common/node_config.hh"
#include "core/dse.hh"
#include "core/node_evaluator.hh"
#include "thermal/package_model.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** One Fig. 10 bar pair. */
struct ThermalRow
{
    App app;
    double bestMeanPeakC = 0.0;
    double bestPerAppPeakC = 0.0;
    NodeConfig bestPerAppConfig;
};

class ThermalStudy
{
  public:
    ThermalStudy(const NodeEvaluator &eval,
                 EhpPackageModel model = EhpPackageModel());

    /** Peak DRAM temperature of one app on one configuration. */
    double peakDramC(const NodeConfig &cfg, App app) const;

    /**
     * Fig. 10: all applications at @p best_mean and at their Table II
     * best-per-application configurations (@p table2 from the DSE).
     */
    std::vector<ThermalRow> run(const NodeConfig &best_mean,
                                const std::vector<TableIIRow> &table2)
        const;

    /** Fig. 11: ASCII heat map of the bottom DRAM die. */
    std::string heatMap(const NodeConfig &cfg, App app) const;

  private:
    const NodeEvaluator &eval_;
    EhpPackageModel model_;
};

} // namespace ena

#endif // ENA_CORE_THERMAL_STUDY_HH
