/**
 * @file
 * Retired: the batch evaluator is gone. Every study and the governor
 * call NodeEvaluator::evaluate() point by point, and the DSE scores
 * its grids with DseGridScorer (core/dse.hh).
 *
 * What remains is the name set the repository benchmark (perfbench/)
 * still compiles against: NodeConfigBatch::fromAxes() and at(),
 * BatchAggregates and NodeEvaluator::evaluateBatchAll(), which is a
 * fold of evaluate() in allApps() order. They go away together with
 * the benchmark metric that times them (core.evaluate_batch_ns).
 */

#ifndef ENA_CORE_EVAL_BATCH_HH
#define ENA_CORE_EVAL_BATCH_HH

#include <cstddef>
#include <vector>

#include "common/node_config.hh"

namespace ena {

/** Retired: the row-major cross product of three DSE knob axes. */
struct NodeConfigBatch
{
    NodeConfig base;
    std::vector<int> cus;
    std::vector<double> freqsGhz;
    std::vector<double> bwsTbs;

    std::size_t size() const { return cus.size(); }

    /** Point @p i: the base config with its three knobs set. */
    NodeConfig
    at(std::size_t i) const
    {
        NodeConfig cfg = base;
        cfg.cus = cus[i];
        cfg.freqGhz = freqsGhz[i];
        cfg.bwTbs = bwsTbs[i];
        return cfg;
    }

    /** cus outermost, bandwidth innermost (DseGrid's order). */
    static NodeConfigBatch
    fromAxes(const NodeConfig &base_cfg, const std::vector<int> &cu_axis,
             const std::vector<double> &freq_axis,
             const std::vector<double> &bw_axis)
    {
        NodeConfigBatch b;
        b.base = base_cfg;
        for (int c : cu_axis) {
            for (double f : freq_axis) {
                for (double bw : bw_axis) {
                    b.cus.push_back(c);
                    b.freqsGhz.push_back(f);
                    b.bwsTbs.push_back(bw);
                }
            }
        }
        return b;
    }
};

/** Retired: per-point across-application aggregates. */
struct BatchAggregates
{
    std::vector<double> geomeanFlops;
    std::vector<double> meanBudgetPowerW;
    std::vector<double> maxBudgetPowerW;
};

} // namespace ena

#endif // ENA_CORE_EVAL_BATCH_HH
