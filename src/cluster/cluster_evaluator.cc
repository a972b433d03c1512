#include "cluster/cluster_evaluator.hh"

#include <cmath>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

telemetry::Counter &
fabricBytesCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "cluster.fabric_bytes",
        "per-node fabric bytes per compute-second, summed over all "
        "cluster evaluations");
    return c;
}

telemetry::Counter &
clusterEvalsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "cluster.evaluations",
        "(config, app, comm spec) system evaluations");
    return c;
}

} // anonymous namespace

ClusterEvaluator::ClusterEvaluator(const NodeEvaluator &eval,
                                   ClusterConfig cluster)
    : eval_(eval), cluster_(cluster), net_(cluster),
      proj_(eval, cluster.nodes)
{
}

ClusterResult
ClusterEvaluator::evaluate(const NodeConfig &cfg, App app,
                           const CommSpec &spec) const
{
    telemetry::ScopedSpan span("cluster", "evaluate");
    ClusterResult r;
    r.app = app;
    r.spec = spec;
    r.node = eval_.evaluate(cfg, app);

    r.comm = CommModel::cost(profileFor(app), spec, net_,
                             r.node.perf.flops);
    r.commEfficiency = r.comm.efficiency();

    // The analytic (zero-communication) projection is core's Fig. 14
    // code path applied to the node result we already hold (same bits
    // as re-evaluating; see ExascaleProjector's EvalResult overloads);
    // communication multiplies on top of it, so a zero-cost spec
    // leaves the numbers bit-for-bit unchanged (x * 1.0 == x,
    // x + 0.0 == x).
    r.analyticExaflops = proj_.systemExaflops(r.node);
    r.systemExaflops = r.analyticExaflops * r.commEfficiency;
    r.analyticMw = proj_.systemMw(r.node);

    // Fabric energy: every byte pays the SerDes+switch cost once per
    // hop. Traffic is the achieved (efficiency-derated) compute rate
    // times the pattern's volume; idle links are in the paper's
    // low-power sleep state, so zero traffic draws zero fabric power.
    const double traffic_bytes_per_sec =
        r.node.perf.flops * r.commEfficiency * r.comm.bytesPerFlop;
    const double watts_per_node = traffic_bytes_per_sec * 8.0 *
                                  cluster_.pjPerBit * 1e-12 *
                                  net_.avgHops();
    r.networkMw = watts_per_node * cluster_.nodes / 1e6;
    r.systemMw = r.analyticMw + r.networkMw;

    clusterEvalsCounter().add();
    fabricBytesCounter().add(
        static_cast<std::uint64_t>(traffic_bytes_per_sec));
    return r;
}

double
ClusterEvaluator::geomeanSystemExaflops(const NodeConfig &cfg,
                                        const CommSpec &spec) const
{
    const std::vector<App> &apps = allApps();
    double log_sum = ThreadPool::global().parallelReduce(
        apps.size(), 0.0,
        [&](std::size_t i) {
            return std::log(evaluate(cfg, apps[i], spec).systemExaflops);
        },
        [](double acc, double v) { return acc + v; });
    return std::exp(log_sum / apps.size());
}

double
ClusterEvaluator::meanCommEfficiency(const NodeConfig &cfg,
                                     const CommSpec &spec) const
{
    const std::vector<App> &apps = allApps();
    double sum = ThreadPool::global().parallelReduce(
        apps.size(), 0.0,
        [&](std::size_t i) {
            return evaluate(cfg, apps[i], spec).commEfficiency;
        },
        [](double acc, double v) { return acc + v; });
    return sum / apps.size();
}

} // namespace ena
