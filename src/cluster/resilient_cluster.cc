#include "cluster/resilient_cluster.hh"

#include <limits>

#include "core/sweep_cell.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/thread_pool.hh"

namespace ena {

ResilientClusterEvaluator::ResilientClusterEvaluator(
    const ClusterEvaluator &ce, ResilienceSpec spec)
    : ce_(ce), spec_(spec), fm_(spec.ras)
{
    spec_.validate();
}

double
ResilientClusterEvaluator::checkpointDrainBps() const
{
    // Checkpoints ride the fabric to the I/O nodes: with every node
    // draining at once the sustainable per-node rate is the all-to-all
    // deliverable bandwidth (injection- or bisection-limited,
    // whichever binds). deliveredGbs is GB/s; the checkpoint model
    // wants bytes/s.
    if (spec_.checkpointViaFabric)
        return ce_.network().deliveredGbs(CommPattern::AllToAll) * 1e9;
    return spec_.checkpoint.ioBandwidthBps;
}

ResilientResult
ResilientClusterEvaluator::evaluate(const NodeConfig &cfg, App app,
                                    const CommSpec &comm) const
{
    ENA_SPAN("resilient", "evaluate");
    ResilientResult r;
    r.cluster = ce_.evaluate(cfg, app, comm);
    r.systemMw = r.cluster.systemMw;

    const int nodes = ce_.clusterConfig().nodes;
    r.nodeFit = fm_.protectedNodeFit(cfg).total();
    r.systemMttfHours = fm_.systemMttfHours(cfg, nodes);
    const double silent_fit = fm_.silentFit(cfg) * nodes;
    r.interruptionMttfHours =
        silent_fit > 0.0 ? 1e9 / silent_fit
                         : std::numeric_limits<double>::infinity();

    if (spec_.faultsEnabled) {
        CheckpointParams params = spec_.checkpoint;
        params.ioBandwidthBps = checkpointDrainBps();
        r.drainBps = params.ioBandwidthBps;
        CheckpointModel ckpt(params);
        r.plan = ckpt.plan(r.systemMttfHours);
        r.ckptEfficiency = r.plan.efficiency;
    }

    r.rmt = rmt_.evaluate(r.cluster.node.perf.activity, spec_.rmtPolicy);
    r.rmtSlowdown = r.rmt.slowdown;

    // Multiplicative composition. With faults disabled and RMT off this
    // is x * 1.0 / 1.0 == x: the bit-identical ClusterEvaluator
    // reduction that bench_ras_scaleout gates.
    r.effectiveExaflops =
        r.cluster.systemExaflops * r.ckptEfficiency / r.rmtSlowdown;

    // (config, app, comm, resilience spec) evaluations.
    static telemetry::Counter &evals =
        telemetry::counter("resilient.evaluations");
    evals.add();
    return r;
}

const std::vector<ProtectionVariant> &
standardProtectionVariants()
{
    static const std::vector<ProtectionVariant> all = [] {
        std::vector<ProtectionVariant> v;
        ResilienceSpec none;
        none.ras = {false, false, false, 2.0};
        none.rmtPolicy = RmtPolicy::Off;
        v.push_back({"no protection", none});

        ResilienceSpec ecc;
        ecc.ras = {true, true, false, 2.0};
        ecc.rmtPolicy = RmtPolicy::Off;
        v.push_back({"ECC only", ecc});

        v.push_back({"ECC + GPU RMT", ResilienceSpec::paper()});
        return v;
    }();
    return all;
}

ResilientScaleOutStudy::ResilientScaleOutStudy(const NodeEvaluator &eval,
                                               ClusterConfig base)
    : eval_(eval), base_(base)
{
    base_.validate();
}

std::vector<ResilientSweepPoint>
ResilientScaleOutStudy::sweep(
    const NodeConfig &cfg, App app, const CommSpec &comm,
    const std::vector<ProtectionVariant> &variants,
    const std::vector<ClusterTopology> &topologies,
    const std::vector<int> &node_counts) const
{
    ENA_SPAN("resilient", "protection_sweep");
    const std::size_t nt = topologies.size();
    const std::size_t nn = node_counts.size();
    return ThreadPool::global().parallelMap(
        variants.size() * nt * nn, [&](std::size_t i) {
            telemetry::ScopedSpan span("resilient", "evaluate_cell");
            const std::size_t vi = i / (nt * nn);
            const ResilienceSpec &spec = variants[vi].spec;
            ClusterConfig cc = base_;
            cc.topology = topologies[(i / nn) % nt];
            cc.nodes = node_counts[i % nn];
            ResilientSweepPoint p;
            p.variant = vi;
            p.topology = cc.topology;
            p.nodes = cc.nodes;
            return runSweepCell(
                "protection sweep", i, p,
                [&] {
                    Status valid = cc.tryValidate();
                    if (valid.ok())
                        valid = cfg.tryValidate();
                    return valid.ok() ? spec.tryValidate() : valid;
                },
                [&](ResilientSweepPoint &q) {
                    ClusterEvaluator ce(eval_, cc);
                    ResilientClusterEvaluator rce(ce, spec);
                    ResilientResult r = rce.evaluate(cfg, app, comm);
                    q.systemMttfHours = r.systemMttfHours;
                    q.interruptionMttfHours = r.interruptionMttfHours;
                    q.commEfficiency = r.cluster.commEfficiency;
                    q.ckptEfficiency = r.ckptEfficiency;
                    q.rmtSlowdown = r.rmtSlowdown;
                    q.systemExaflops = r.cluster.systemExaflops;
                    q.effectiveExaflops = r.effectiveExaflops;
                    q.systemMw = r.systemMw;
                });
        });
}

ResilientScaleOutStudy::SearchResult
ResilientScaleOutStudy::bestUnderAvailability(
    const std::vector<NodeConfig> &configs,
    const std::vector<ProtectionVariant> &variants,
    const std::vector<int> &node_counts, App app, const CommSpec &comm,
    const SearchConstraints &limits) const
{
    ENA_SPAN("resilient", "availability_search");
    const std::size_t nv = variants.size();
    const std::size_t nn = node_counts.size();
    const std::size_t total = configs.size() * nv * nn;

    struct Candidate
    {
        bool feasible = false;
        double maxBudgetPowerW = 0.0;
        ResilientResult result;
    };

    std::vector<Candidate> cells = ThreadPool::global().parallelMap(
        total, [&](std::size_t i) {
            telemetry::ScopedSpan span("resilient", "search_candidate");
            const NodeConfig &cfg = configs[i / (nv * nn)];
            const ResilienceSpec &spec = variants[(i / nn) % nv].spec;
            ClusterConfig cc = base_;
            cc.nodes = node_counts[i % nn];
            ClusterEvaluator ce(eval_, cc);
            ResilientClusterEvaluator rce(ce, spec);
            Candidate c;
            c.maxBudgetPowerW = eval_.maxBudgetPower(cfg);
            c.result = rce.evaluate(cfg, app, comm);
            c.feasible =
                c.maxBudgetPowerW <= limits.nodePowerBudgetW &&
                c.result.interruptionMttfHours >=
                    limits.minInterruptionMttfHours;
            return c;
        });

    // Serial arg-max in index order with strict >: deterministic, ties
    // break toward the earliest candidate.
    SearchResult best;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Candidate &c = cells[i];
        if (!c.feasible)
            continue;
        if (!best.feasible ||
            c.result.effectiveExaflops > best.result.effectiveExaflops) {
            best.feasible = true;
            best.config = configs[i / (nv * nn)];
            best.variant = (i / nn) % nv;
            best.nodes = node_counts[i % nn];
            best.maxBudgetPowerW = c.maxBudgetPowerW;
            best.result = c.result;
        }
    }
    return best;
}

} // namespace ena
