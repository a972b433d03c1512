#include "core/node_evaluator.hh"

#include <algorithm>

#include "telemetry/metrics.hh"
#include "util/stats_math.hh"

namespace ena {

EvalResult
NodeEvaluator::evaluate(const NodeConfig &cfg, App app) const
{
    // Hottest call in the stack (every sweep funnels through here):
    // one cached-reference relaxed increment, no spans.
    static telemetry::Counter &evals = telemetry::counter("node.evaluations");
    evals.add();

    const KernelProfile &k = profileFor(app);
    EvalResult r;
    r.app = app;
    r.perf = perfModel_.evaluate(cfg, k);
    r.power = powerModel_.evaluate(cfg, r.perf.activity);
    return r;
}

std::vector<EvalResult>
NodeEvaluator::evaluateAll(const NodeConfig &cfg) const
{
    std::vector<EvalResult> out;
    out.reserve(allApps().size());
    for (App app : allApps())
        out.push_back(evaluate(cfg, app));
    return out;
}

double
NodeEvaluator::maxBudgetPower(const NodeConfig &cfg) const
{
    double worst = 0.0;
    for (App app : allApps()) {
        worst = std::max(worst,
                         evaluate(cfg, app).power.budgetPower());
    }
    return worst;
}

double
NodeEvaluator::geomeanFlops(const NodeConfig &cfg) const
{
    std::vector<double> perfs;
    for (App app : allApps())
        perfs.push_back(evaluate(cfg, app).perf.flops);
    return geomean(perfs);
}

BatchAggregates
NodeEvaluator::evaluateBatchAll(const NodeConfigBatch &batch) const
{
    const std::vector<App> &apps = allApps();
    std::vector<double> flops(apps.size());
    std::vector<double> budget(apps.size());
    BatchAggregates agg;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const NodeConfig cfg = batch.at(i);
        double worst = 0.0;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            EvalResult r = evaluate(cfg, apps[a]);
            flops[a] = r.perf.flops;
            budget[a] = r.power.budgetPower();
            worst = std::max(worst, budget[a]);
        }
        agg.geomeanFlops.push_back(geomean(flops));
        agg.meanBudgetPowerW.push_back(mean(budget));
        agg.maxBudgetPowerW.push_back(worst);
    }
    return agg;
}

} // namespace ena
