#include "taskgraph/taskgraph_study.hh"

#include <algorithm>

#include "core/sweep_cell.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ena {

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

            return runSweepCell(
                "taskgraph sweep", i, p,
                [&] {
                    Status valid = cc.tryValidate();
                    if (valid.ok())
                        valid = cfg.tryValidate();
                    if (valid.ok())
                        valid = dag.tryValidate();
                    return valid.withContext("taskgraph sweep cell ", i);
                },
                [&](TaskGraphSweepPoint &q) {
                    InterNodeNetwork net(cc);
                    DagCostModel cost =
                        DagCostModel::build(dag, eval_, cfg, net);
                    Schedule s = scheduleDag(dag, cost,
                                             schedulers[q.scheduler],
                                             q.nodes);
                    q.makespanSeconds = s.makespanSeconds;
                    q.criticalPathSeconds = criticalPathSeconds(dag, cost);
                    q.speedup = s.speedup();
                    q.efficiency = s.efficiency();
                    q.utilization = s.utilization();
                    q.commSeconds = s.totalCommSeconds;
                    q.edgesCosted = s.edgesCosted;
                    // Scheduler x topology x node-count cells.
                    static telemetry::Counter &cells =
                        telemetry::counter("taskgraph.sweep_cells");
                    cells.add();
                });
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
