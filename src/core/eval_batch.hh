/**
 * @file
 * Structure-of-arrays batch evaluation of node configurations: the
 * DSE hot path. A NodeConfigBatch holds the three swept knobs as
 * parallel arrays over a shared base config; evaluateBatch() scores
 * thousands of grid points per call with tight, vectorizable inner
 * loops and per-batch caches for the expensive pow() terms.
 *
 * Results are bit-identical to the scalar NodeEvaluator::evaluate()
 * oracle (enforced by test_eval_batch.cc and bench_batch_eval): both
 * paths run the same inline term functions from core/perf_terms.hh
 * and power/power_terms.hh in the same order.
 */

#ifndef ENA_CORE_EVAL_BATCH_HH
#define ENA_CORE_EVAL_BATCH_HH

#include <cstddef>
#include <vector>

#include "common/node_config.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/**
 * A set of node configurations that differ only in the three DSE
 * knobs (cus, freqGhz, bwTbs), stored structure-of-arrays over a
 * shared base config that supplies every other field (chiplet
 * organization, external memory, power opts).
 */
struct NodeConfigBatch
{
    NodeConfig base;
    std::vector<int> cus;
    std::vector<double> freqsGhz;
    std::vector<double> bwsTbs;

    std::size_t size() const { return cus.size(); }
    bool empty() const { return cus.empty(); }

    void
    reserve(std::size_t n)
    {
        cus.reserve(n);
        freqsGhz.reserve(n);
        bwsTbs.reserve(n);
    }

    void
    push(int cu_count, double freq_ghz, double bw_tbs)
    {
        cus.push_back(cu_count);
        freqsGhz.push_back(freq_ghz);
        bwsTbs.push_back(bw_tbs);
    }

    /** Materialize point @p i as a full NodeConfig. */
    NodeConfig
    at(std::size_t i) const
    {
        NodeConfig cfg = base;
        cfg.cus = cus[i];
        cfg.freqGhz = freqsGhz[i];
        cfg.bwTbs = bwsTbs[i];
        return cfg;
    }

    /**
     * Row-major cross product of three axes (the DseGrid enumeration
     * order: cus outermost, bandwidth innermost).
     */
    static NodeConfigBatch
    fromAxes(const NodeConfig &base_cfg, const std::vector<int> &cu_axis,
             const std::vector<double> &freq_axis,
             const std::vector<double> &bw_axis)
    {
        NodeConfigBatch b;
        b.base = base_cfg;
        b.reserve(cu_axis.size() * freq_axis.size() * bw_axis.size());
        for (int c : cu_axis)
            for (double f : freq_axis)
                for (double bw : bw_axis)
                    b.push(c, f, bw);
        return b;
    }
};

/** Per-point scores of one (batch, application) evaluation. */
struct BatchEvalResult
{
    App app = App::MaxFlops;
    std::vector<double> flops;
    std::vector<double> budgetPowerW;
    std::vector<double> packagePowerW;
    std::vector<double> totalPowerW;

    std::size_t size() const { return flops.size(); }
};

/** Per-point across-application aggregates (the DSE sweep scores). */
struct BatchAggregates
{
    std::vector<double> geomeanFlops;
    std::vector<double> meanBudgetPowerW;
    std::vector<double> maxBudgetPowerW;

    std::size_t size() const { return geomeanFlops.size(); }
};

} // namespace ena

#endif // ENA_CORE_EVAL_BATCH_HH
