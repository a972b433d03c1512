/**
 * @file
 * Combined performance + power evaluation of one ENA node configuration
 * for one application: the unit of work for every study and the DSE.
 */

#ifndef ENA_CORE_NODE_EVALUATOR_HH
#define ENA_CORE_NODE_EVALUATOR_HH

#include <vector>

#include "common/node_config.hh"
#include "core/eval_batch.hh"
#include "core/perf_model.hh"
#include "power/node_power.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** Perf and power of one (config, application) pair. */
struct EvalResult
{
    App app;
    PerfResult perf;
    PowerBreakdown power;

    double teraflops() const { return perf.flops / 1e12; }
    double perfPerWatt() const { return perf.flops / power.total(); }
};

class NodeEvaluator
{
  public:
    NodeEvaluator() = default;

    /** Evaluate one application on one configuration. */
    EvalResult evaluate(const NodeConfig &cfg, App app) const;

    /**
     * Retired name (core/eval_batch.hh): element i holds the geomean
     * flops and the mean and max budget power of batch.at(i).
     */
    BatchAggregates evaluateBatchAll(const NodeConfigBatch &batch) const;

    /** Evaluate every Table I application on one configuration. */
    std::vector<EvalResult> evaluateAll(const NodeConfig &cfg) const;

    /**
     * Worst-case budget-scope power across all applications — the
     * quantity held under the paper's 160 W node budget: a
     * configuration is only acceptable if no application can pull the
     * node over budget.
     */
    double maxBudgetPower(const NodeConfig &cfg) const;

    /** Geometric-mean achieved flops across all applications. */
    double geomeanFlops(const NodeConfig &cfg) const;

    const PerfModel &perfModel() const { return perfModel_; }
    const NodePowerModel &powerModel() const { return powerModel_; }

  private:
    PerfModel perfModel_;
    NodePowerModel powerModel_;
};

} // namespace ena

#endif // ENA_CORE_NODE_EVALUATOR_HH
