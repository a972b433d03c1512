/**
 * @file
 * TaskGraphStudy and ResilientDagScheduler: sweep shape and
 * quarantine, serial/parallel bit-identity, the job-mix interference
 * model, and the RAS layer's exact reduction under
 * ResilienceSpec::none().
 */

#include <gtest/gtest.h>

#include <cstring>

#include "taskgraph/resilient_schedule.hh"
#include "taskgraph/taskgraph_study.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

ClusterConfig
smallCluster()
{
    ClusterConfig c;
    c.nodes = 128;
    return c;
}

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

const std::vector<ClusterTopology> topologies = {
    ClusterTopology::FatTree, ClusterTopology::Dragonfly};
const std::vector<int> counts = {8, 32, 128};

bool
samePoint(const TaskGraphSweepPoint &a, const TaskGraphSweepPoint &b)
{
    return a.scheduler == b.scheduler && a.topology == b.topology &&
           a.nodes == b.nodes &&
           bits(a.makespanSeconds) == bits(b.makespanSeconds) &&
           bits(a.criticalPathSeconds) == bits(b.criticalPathSeconds) &&
           bits(a.speedup) == bits(b.speedup) &&
           bits(a.efficiency) == bits(b.efficiency) &&
           bits(a.utilization) == bits(b.utilization) &&
           bits(a.commSeconds) == bits(b.commSeconds) &&
           a.edgesCosted == b.edgesCosted && a.ok == b.ok &&
           a.error == b.error;
}

} // anonymous namespace

TEST(TaskGraphStudy, SweepIsSchedulerMajorWithAllCellsOk)
{
    TaskDag dag = TaskDag::wavefront(8, 48e9, 16e6, App::SNAP);
    TaskGraphStudy study(evaluator(), smallCluster());
    auto points = study.sweep(dag, NodeConfig::bestMean(),
                              allDagSchedulers(), topologies, counts);

    const std::size_t ns = allDagSchedulers().size();
    const std::size_t nt = topologies.size();
    const std::size_t nn = counts.size();
    ASSERT_EQ(points.size(), ns * nt * nn);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const TaskGraphSweepPoint &p = points[i];
        EXPECT_EQ(p.scheduler, i / (nt * nn)) << i;
        EXPECT_EQ(p.topology, topologies[(i / nn) % nt]) << i;
        EXPECT_EQ(p.nodes, counts[i % nn]) << i;
        ASSERT_TRUE(p.ok) << p.error;
        EXPECT_GT(p.makespanSeconds, 0.0);
        EXPECT_GT(p.criticalPathSeconds, 0.0);
        EXPECT_GT(p.utilization, 0.0);
    }
}

TEST(TaskGraphStudy, ParallelSweepIsBitIdenticalToSerial)
{
    TaskDag dag = TaskDag::randomLayered(8, 8, 0.35, 11, 48e9, 16e6,
                                         App::CoMD);
    TaskGraphStudy study(evaluator(), smallCluster());
    const NodeConfig cfg = NodeConfig::bestMean();

    ThreadPool::setGlobalThreads(1);
    auto serial = study.sweep(dag, cfg, allDagSchedulers(), topologies,
                              counts);
    ThreadPool::setGlobalThreads(8);
    auto parallel = study.sweep(dag, cfg, allDagSchedulers(),
                                topologies, counts);
    ThreadPool::setGlobalThreads(0);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(samePoint(serial[i], parallel[i])) << i;
}

TEST(TaskGraphStudy, InvalidCellsAreQuarantinedNotFatal)
{
    TaskDag dag = TaskDag::wavefront(4, 48e9, 16e6, App::SNAP);
    TaskGraphStudy study(evaluator(), smallCluster());
    auto points =
        study.sweep(dag, NodeConfig::bestMean(), allDagSchedulers(),
                    topologies, {16, -3, 64});

    ASSERT_EQ(points.size(),
              allDagSchedulers().size() * topologies.size() * 3);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].nodes == -3) {
            EXPECT_FALSE(points[i].ok) << i;
            EXPECT_FALSE(points[i].error.empty()) << i;
            EXPECT_EQ(points[i].makespanSeconds, 0.0) << i;
        } else {
            EXPECT_TRUE(points[i].ok) << points[i].error;
        }
    }
}

TEST(TaskGraphStudy, JobMixZeroCommDagsDoNotInterfere)
{
    // Zero-byte edges never touch the fabric: shared/alone is x/x, so
    // the slowdown is exactly 1.0 — the interference model's exact
    // reduction.
    TaskDag dag = TaskDag::wavefront(6, 48e9, 0.0, App::LULESH);
    TaskGraphStudy study(evaluator(), smallCluster());
    std::vector<TaskDag> mix = {dag, dag, dag, dag};
    JobMixResult jm = study.jobMix(mix, NodeConfig::bestMean(),
                                   DagScheduler::CriticalPath, 128);

    EXPECT_EQ(jm.jobs, 4);
    EXPECT_EQ(jm.nodesPerJob, 32);
    ASSERT_EQ(jm.perJob.size(), 4u);
    for (const JobInterference &j : jm.perJob) {
        EXPECT_EQ(j.slowdown, 1.0);
        EXPECT_EQ(bits(j.sharedSeconds), bits(j.aloneSeconds));
    }
    EXPECT_EQ(jm.meanSlowdown, 1.0);
    EXPECT_EQ(jm.worstSlowdown, 1.0);
}

TEST(TaskGraphStudy, JobMixCommHeavyDagsSlowEachOtherDown)
{
    TaskDag dag = TaskDag::stencilHalo(16, 8, 48e9, 128e6, App::CoMD);
    TaskGraphStudy study(evaluator(), smallCluster());
    std::vector<TaskDag> mix = {dag, dag};
    JobMixResult jm = study.jobMix(mix, NodeConfig::bestMean(),
                                   DagScheduler::CriticalPath, 128);

    EXPECT_GE(jm.meanSlowdown, 1.0);
    EXPECT_GE(jm.worstSlowdown, jm.meanSlowdown);
    for (const JobInterference &j : jm.perJob)
        EXPECT_GE(j.sharedSeconds, j.aloneSeconds);
}

TEST(ResilientDagScheduler, NoneSpecReducesToTheFaultFreeSchedule)
{
    ClusterConfig cluster = smallCluster();
    InterNodeNetwork net(cluster);
    const NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::wavefront(8, 48e9, 16e6, App::SNAP);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, net);
    Schedule plain = scheduleDag(dag, cost, DagScheduler::CriticalPath,
                                 cluster.nodes);

    ResilientDagScheduler rds(evaluator(), ResilienceSpec::none());
    ResilientSchedule rs =
        rds.evaluate(dag, cfg, net, DagScheduler::CriticalPath,
                     cluster.nodes, 8);

    EXPECT_EQ(rs.rmtSlowdown, 1.0);
    EXPECT_EQ(rs.expectedFailures, 0.0);
    EXPECT_EQ(rs.reexecSeconds, 0.0);
    EXPECT_EQ(rs.stretchFactor, 1.0);
    EXPECT_EQ(bits(rs.schedule.makespanSeconds),
              bits(plain.makespanSeconds));
    EXPECT_EQ(bits(rs.effectiveMakespanSeconds),
              bits(plain.makespanSeconds));
    EXPECT_EQ(rs.degradation(), 1.0);
}

TEST(ResilientDagScheduler, FaultsAndRmtDegradeTheMakespan)
{
    ClusterConfig cluster = smallCluster();
    InterNodeNetwork net(cluster);
    const NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::stencilHalo(16, 12, 64e9, 32e6, App::HPGMG);

    ResilientSchedule none =
        ResilientDagScheduler(evaluator(), ResilienceSpec::none())
            .evaluate(dag, cfg, net, DagScheduler::CriticalPath,
                      cluster.nodes, 8);
    ResilientSchedule paper =
        ResilientDagScheduler(evaluator(), ResilienceSpec::paper())
            .evaluate(dag, cfg, net, DagScheduler::CriticalPath,
                      cluster.nodes, 8);

    EXPECT_GT(paper.nodeMttfHours, 0.0);
    EXPECT_GE(paper.expectedFailures, 0.0);
    EXPECT_GE(paper.effectiveMakespanSeconds,
              paper.schedule.makespanSeconds);
    EXPECT_GE(paper.degradation(), 1.0);
    // Protection is never free relative to the ideal machine.
    EXPECT_GE(paper.effectiveMakespanSeconds,
              none.effectiveMakespanSeconds);
}
