#include "cluster/scale_out_study.hh"

#include "core/sweep_cell.hh"
#include "telemetry/telemetry.hh"
#include "util/thread_pool.hh"

namespace ena {

ScaleOutStudy::ScaleOutStudy(const NodeEvaluator &eval,
                             ClusterConfig base)
    : eval_(eval), base_(base)
{
    base_.validate();
}

std::vector<ScalingPoint>
ScaleOutStudy::scalingCurve(const NodeConfig &cfg, App app,
                            CommSpec spec,
                            const std::vector<int> &node_counts) const
{
    ENA_SPAN("cluster", "scaling_curve");
    return ThreadPool::global().parallelMap(
        node_counts.size(), [&](std::size_t i) {
            telemetry::ScopedSpan span("cluster", "evaluate_node_count");
            ClusterConfig cc = base_;
            cc.nodes = node_counts[i];
            ClusterEvaluator ce(eval_, cc);
            ClusterResult r = ce.evaluate(cfg, app, spec);
            ScalingPoint p;
            p.nodes = cc.nodes;
            p.analyticExaflops = r.analyticExaflops;
            p.systemExaflops = r.systemExaflops;
            p.efficiency = r.commEfficiency;
            p.overheadRatio = r.comm.overheadRatio();
            p.systemMw = r.systemMw;
            return p;
        });
}

std::vector<ScalingPoint>
ScaleOutStudy::weakScaling(const NodeConfig &cfg, App app, CommSpec spec,
                           const std::vector<int> &node_counts) const
{
    spec.scaling = ScalingMode::Weak;
    return scalingCurve(cfg, app, spec, node_counts);
}

std::vector<ScalingPoint>
ScaleOutStudy::strongScaling(const NodeConfig &cfg, App app,
                             CommSpec spec,
                             const std::vector<int> &node_counts) const
{
    spec.scaling = ScalingMode::Strong;
    return scalingCurve(cfg, app, spec, node_counts);
}

std::vector<ClusterFig14Point>
ScaleOutStudy::fig14(const std::vector<int> &cus,
                     const CommSpec &spec) const
{
    ENA_SPAN("cluster", "fig14_sweep");
    ClusterEvaluator ce(eval_, base_);
    return ThreadPool::global().parallelMap(
        cus.size(), [&](std::size_t i) {
            // The Fig. 14 operating point (see
            // ExascaleProjector::sweepCus).
            NodeConfig cfg;
            cfg.cus = cus[i];
            cfg.freqGhz = 1.0;
            cfg.bwTbs = 1.0;
            ClusterResult r = ce.evaluate(cfg, App::MaxFlops, spec);
            ClusterFig14Point p;
            p.cus = cus[i];
            p.analyticExaflops = r.analyticExaflops;
            p.analyticMw = r.analyticMw;
            p.commExaflops = r.systemExaflops;
            p.commMw = r.systemMw;
            p.efficiency = r.commEfficiency;
            return p;
        });
}

std::vector<TopologyPoint>
ScaleOutStudy::topologySweep(
    const NodeConfig &cfg, App app, const CommSpec &spec,
    const std::vector<ClusterTopology> &topologies,
    const std::vector<int> &node_counts) const
{
    ENA_SPAN("cluster", "topology_sweep");
    const std::size_t nn = node_counts.size();
    return ThreadPool::global().parallelMap(
        topologies.size() * nn, [&](std::size_t i) {
            telemetry::ScopedSpan span("cluster", "evaluate_topology");
            ClusterConfig cc = base_;
            cc.topology = topologies[i / nn];
            cc.nodes = node_counts[i % nn];
            TopologyPoint p;
            p.topology = cc.topology;
            p.nodes = cc.nodes;
            return runSweepCell(
                "topology sweep", i, p,
                [&] {
                    Status valid = cc.tryValidate();
                    return valid.ok() ? cfg.tryValidate()
                                      : valid.withContext(
                                            "topology sweep cell ", i);
                },
                [&](TopologyPoint &q) {
                    ClusterEvaluator ce(eval_, cc);
                    ClusterResult r = ce.evaluate(cfg, app, spec);
                    q.avgHops = ce.network().avgHops();
                    q.bisectionGbs = ce.network().bisectionGbs();
                    q.efficiency = r.commEfficiency;
                    q.systemExaflops = r.systemExaflops;
                    q.systemMw = r.systemMw;
                });
        });
}

} // namespace ena
