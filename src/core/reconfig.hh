/**
 * @file
 * Dynamic resource reconfiguration (paper Section VI).
 *
 * The paper's Table II quantifies an *oracle* that redesigns the node
 * per application (including its bandwidth provisioning). A runtime
 * system can only work with the installed hardware: it can gate CUs
 * off 32 at a time (one tile/SE), move the DVFS point, and pay a
 * transition cost at each phase change. This governor does exactly
 * that on top of the analytic models: per phase it picks the (active
 * CUs, frequency) pair that maximizes the kernel's performance within
 * the power budget, and the study driver compares a phased workload
 * under static best-mean settings vs the governed ones — a realizable
 * fraction of Table II's oracle benefit.
 */

#ifndef ENA_CORE_RECONFIG_HH
#define ENA_CORE_RECONFIG_HH

#include <vector>

#include "core/node_evaluator.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** One application phase of a long-running job. */
struct Phase
{
    App app;
    double seconds = 1.0;
};

struct GovernorParams
{
    /** Installed hardware (the governor can only gate down from it). */
    NodeConfig installed = NodeConfig::bestMean();
    double budgetW = 160.0;
    /** DVFS points available at runtime. */
    std::vector<double> freqsGhz = {0.7, 0.8, 0.9, 1.0, 1.1,
                                    1.2, 1.3, 1.4, 1.5};
    /** Cost of one reconfiguration (drain + DVFS settle), seconds. */
    double transitionS = 0.002;
};

/** The governor's setting for one phase. */
struct GovernorDecision
{
    int activeCus = 0;
    double freqGhz = 1.0;
    double flops = 0.0;        ///< predicted at this setting
    double budgetPowerW = 0.0;
};

/** Outcome of running a phased workload. */
struct GovernorSummary
{
    double staticWork = 0.0;    ///< flop-seconds at static settings
    double governedWork = 0.0;  ///< with per-phase reconfiguration
    double gainPct = 0.0;
    int transitions = 0;
    double avgStaticPowerW = 0.0;
    double avgGovernedPowerW = 0.0;
};

class ReconfigGovernor
{
  public:
    ReconfigGovernor(const NodeEvaluator &eval, GovernorParams params);

    /** Best runtime setting for one kernel on the installed hardware. */
    GovernorDecision decide(App app) const;

    /** Compare a phased workload: static best-mean vs governed. */
    GovernorSummary run(const std::vector<Phase> &phases) const;

    const GovernorParams &params() const { return params_; }

  private:
    const NodeEvaluator &eval_;
    GovernorParams params_;
};

} // namespace ena

#endif // ENA_CORE_RECONFIG_HH
