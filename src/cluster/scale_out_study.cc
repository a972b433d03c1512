#include "cluster/scale_out_study.hh"

#include <cstdlib>
#include <sstream>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

telemetry::Counter &
failedCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "sweep.configs_failed",
        "grid points quarantined instead of evaluated");
    return c;
}

/** Hexfloat journal payload; see encodeDsePoint in core/dse.cc. */
std::string
encodeTopologyPoint(const TopologyPoint &p)
{
    std::ostringstream os;
    os << strformat("%a %a %a %a %a %d ", p.avgHops, p.bisectionGbs,
                    p.efficiency, p.systemExaflops, p.systemMw,
                    p.ok ? 1 : 0);
    os << p.error;
    return os.str();
}

bool
decodeTopologyPoint(const std::string &payload, TopologyPoint *p)
{
    std::istringstream is(payload);
    std::string f[5];
    int ok = 0;
    if (!(is >> f[0] >> f[1] >> f[2] >> f[3] >> f[4] >> ok))
        return false;
    double *dst[5] = {&p->avgHops, &p->bisectionGbs, &p->efficiency,
                      &p->systemExaflops, &p->systemMw};
    for (int i = 0; i < 5; ++i) {
        char *end = nullptr;
        *dst[i] = std::strtod(f[i].c_str(), &end);
        if (end == f[i].c_str() || *end)
            return false;
    }
    p->ok = ok != 0;
    is.get();
    std::getline(is, p->error);
    return true;
}

} // anonymous namespace

std::string
clusterCellJournalKey(const ClusterConfig &cc, const NodeConfig &cfg,
                      App app, const CommSpec &spec)
{
    return strformat(
        "%s:n%d:links%dx%a:lat%a:pj%a:ft%d/%a:df%d:torus%dx%dx%d:%s:"
        "comm%d/%a/%d/%a:%s",
        clusterTopologyName(cc.topology).c_str(), cc.nodes,
        cc.linksPerNode, cc.linkGbs, cc.linkLatencyUs, cc.pjPerBit,
        cc.fatTreeRadix, cc.fatTreeTaper, cc.dragonflyGroupRouters,
        cc.torusX, cc.torusY, cc.torusZ, appName(app).c_str(),
        static_cast<int>(spec.pattern), spec.intensity,
        static_cast<int>(spec.scaling), spec.syncsPerSecond,
        journalNodeKey(cfg).c_str());
}

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
            // Explicit torus dims only fit the base node count.
            cc.torusX = cc.torusY = cc.torusZ = 0;
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
    auto journal = SweepJournal::openFromEnvironment();
    return topologySweep(cfg, app, spec, topologies, node_counts,
                         journal.get());
}

std::vector<TopologyPoint>
ScaleOutStudy::topologySweep(
    const NodeConfig &cfg, App app, const CommSpec &spec,
    const std::vector<ClusterTopology> &topologies,
    const std::vector<int> &node_counts, SweepJournal *journal) const
{
    ENA_SPAN("cluster", "topology_sweep");
    const std::size_t nn = node_counts.size();
    return ThreadPool::global().parallelMap(
        topologies.size() * nn, [&](std::size_t i) {
            telemetry::ScopedSpan span("cluster", "evaluate_topology");
            ClusterConfig cc = base_;
            cc.topology = topologies[i / nn];
            cc.nodes = node_counts[i % nn];
            cc.torusX = cc.torusY = cc.torusZ = 0;
            TopologyPoint p;
            p.topology = cc.topology;
            p.nodes = cc.nodes;

            std::string key, payload;
            if (journal) {
                key = strformat(
                    "topo[%zu]:%s", i,
                    clusterCellJournalKey(cc, cfg, app, spec).c_str());
                if (journal->lookup(key, &payload)) {
                    TopologyPoint j = p;
                    if (decodeTopologyPoint(payload, &j))
                        return j;
                    warn("sweep journal: undecodable payload for '",
                         key, "'; recomputing");
                }
            }

            Status valid = cc.tryValidate();
            if (!valid.ok())
                valid = valid.withContext("topology sweep cell ", i);
            else
                valid = cfg.tryValidate();
            if (!valid.ok()) {
                p.ok = false;
                p.error = valid.toString();
                failedCounter().add();
                warn("topology sweep: quarantined cell ", i, ": ",
                     p.error);
            } else {
                try {
                    ClusterEvaluator ce(eval_, cc);
                    ClusterResult r = ce.evaluate(cfg, app, spec);
                    p.avgHops = ce.network().avgHops();
                    p.bisectionGbs = ce.network().bisectionGbs();
                    p.efficiency = r.commEfficiency;
                    p.systemExaflops = r.systemExaflops;
                    p.systemMw = r.systemMw;
                } catch (const std::exception &e) {
                    p = TopologyPoint{};
                    p.topology = cc.topology;
                    p.nodes = cc.nodes;
                    p.ok = false;
                    p.error = e.what();
                    failedCounter().add();
                    warn("topology sweep: quarantined cell ", i, ": ",
                         p.error);
                }
            }

            if (journal)
                journal->append(key, encodeTopologyPoint(p));
            return p;
        });
}

} // namespace ena
