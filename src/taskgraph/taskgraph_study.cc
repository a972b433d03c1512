#include "taskgraph/taskgraph_study.hh"

#include <algorithm>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

telemetry::Counter &
sweepCellCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "taskgraph.sweep_cells",
        "scheduler x topology x node-count cells evaluated");
    return c;
}

telemetry::Counter &
quarantinedCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "sweep.configs_failed",
        "grid points quarantined instead of evaluated");
    return c;
}

} // anonymous namespace

TaskGraphStudy::TaskGraphStudy(const NodeEvaluator &eval,
                               ClusterConfig base)
    : eval_(eval), base_(base)
{
    base_.validate();
}

std::vector<TaskGraphSweepPoint>
TaskGraphStudy::sweep(const TaskDag &dag, const NodeConfig &cfg,
                      const std::vector<DagScheduler> &schedulers,
                      const std::vector<ClusterTopology> &topologies,
                      const std::vector<int> &node_counts) const
{
    ENA_SPAN("taskgraph", "taskgraph_sweep");
    const std::size_t nt = topologies.size();
    const std::size_t nn = node_counts.size();
    return ThreadPool::global().parallelMap(
        schedulers.size() * nt * nn, [&](std::size_t i) {
            telemetry::ScopedSpan span("taskgraph", "evaluate_cell");
            TaskGraphSweepPoint p;
            p.scheduler = i / (nt * nn);
            p.topology = topologies[(i / nn) % nt];
            p.nodes = node_counts[i % nn];

            ClusterConfig cc = base_;
            cc.topology = p.topology;
            cc.nodes = p.nodes;
            // Explicit torus dims only fit the base node count.
            cc.torusX = cc.torusY = cc.torusZ = 0;

            Status valid = cc.tryValidate();
            if (valid.ok())
                valid = cfg.tryValidate();
            if (valid.ok())
                valid = dag.tryValidate();
            if (!valid.ok()) {
                p.ok = false;
                p.error =
                    valid.withContext("taskgraph sweep cell ", i).toString();
                quarantinedCounter().add();
                warn("taskgraph sweep: quarantined cell ", i, ": ",
                     p.error);
                return p;
            }

            try {
                InterNodeNetwork net(cc);
                DagCostModel cost =
                    DagCostModel::build(dag, eval_, cfg, net);
                Schedule s = scheduleDag(dag, cost,
                                         schedulers[p.scheduler], p.nodes);
                p.makespanSeconds = s.makespanSeconds;
                p.criticalPathSeconds = criticalPathSeconds(dag, cost);
                p.speedup = s.speedup();
                p.efficiency = s.efficiency();
                p.utilization = s.utilization();
                p.commSeconds = s.totalCommSeconds;
                p.edgesCosted = s.edgesCosted;
                sweepCellCounter().add();
            } catch (const std::exception &e) {
                const std::size_t sched = p.scheduler;
                p = TaskGraphSweepPoint{};
                p.scheduler = sched;
                p.topology = topologies[(i / nn) % nt];
                p.nodes = node_counts[i % nn];
                p.ok = false;
                p.error = e.what();
                quarantinedCounter().add();
                warn("taskgraph sweep: quarantined cell ", i, ": ",
                     p.error);
            }
            return p;
        });
}

JobMixResult
TaskGraphStudy::jobMix(const std::vector<TaskDag> &dags,
                       const NodeConfig &cfg, DagScheduler policy,
                       int total_nodes) const
{
    ENA_ASSERT(!dags.empty(), "job mix needs at least one job");
    ENA_ASSERT(total_nodes >= static_cast<int>(dags.size()),
               "cannot split ", total_nodes, " nodes across ",
               dags.size(), " jobs");
    ENA_SPAN("taskgraph", "job_mix");

    JobMixResult r;
    r.jobs = static_cast<int>(dags.size());
    r.nodesPerJob = total_nodes / r.jobs;

    ClusterConfig cc = base_;
    cc.nodes = total_nodes;
    cc.torusX = cc.torusY = cc.torusZ = 0;
    InterNodeNetwork net(cc);

    r.perJob = ThreadPool::global().parallelMap(
        dags.size(), [&](std::size_t i) {
            telemetry::ScopedSpan span("taskgraph", "job_mix_job");
            JobInterference j;
            j.dag = dags[i].label();
            DagCostModel alone =
                DagCostModel::build(dags[i], eval_, cfg, net);
            j.aloneSeconds =
                scheduleDag(dags[i], alone, policy, r.nodesPerJob)
                    .makespanSeconds;
            // Sharing the fabric: every job's edges see 1/jobs of the
            // delivered bandwidth. Task times are unaffected, so a
            // zero-communication job is interference-free bitwise.
            DagCostModel shared = alone;
            shared.edgeBandwidthBps =
                alone.edgeBandwidthBps / static_cast<double>(r.jobs);
            j.sharedSeconds =
                scheduleDag(dags[i], shared, policy, r.nodesPerJob)
                    .makespanSeconds;
            j.slowdown = j.aloneSeconds > 0.0
                             ? j.sharedSeconds / j.aloneSeconds
                             : 1.0;
            return j;
        });

    double sum = 0.0;
    for (const JobInterference &j : r.perJob) {
        sum += j.slowdown;
        r.worstSlowdown = std::max(r.worstSlowdown, j.slowdown);
    }
    r.meanSlowdown = sum / static_cast<double>(r.jobs);
    return r;
}

} // namespace ena
