/**
 * @file
 * DAG schedulers: the zero-comm analytic reduction (the layer's exact
 * gate), determinism, scheduling-quality orderings, and the cost-model
 * plumbing from NodeEvaluator / InterNodeNetwork.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "taskgraph/scheduler.hh"

using namespace ena;

namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

const InterNodeNetwork &
network()
{
    static ClusterConfig cluster = [] {
        ClusterConfig c;
        c.nodes = 256;
        return c;
    }();
    static InterNodeNetwork net(cluster);
    return net;
}

std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

} // anonymous namespace

TEST(DagScheduler, NamesRoundTripAndAliasesParse)
{
    for (DagScheduler s : allDagSchedulers()) {
        auto back = tryDagSchedulerFromName(dagSchedulerName(s));
        ASSERT_TRUE(back.ok()) << dagSchedulerName(s);
        EXPECT_EQ(*back, s);
    }
    EXPECT_EQ(*tryDagSchedulerFromName("heft"),
              DagScheduler::CriticalPath);
    EXPECT_EQ(*tryDagSchedulerFromName("minmin"), DagScheduler::MinMin);
    EXPECT_EQ(*tryDagSchedulerFromName("rr"), DagScheduler::RoundRobin);
    EXPECT_FALSE(tryDagSchedulerFromName("fifo").ok());
}

TEST(DagCostModel, PricesTasksFromTheEvaluator)
{
    NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::wavefront(4, 64e9, 16e6, App::SNAP);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, network());

    ASSERT_EQ(cost.taskSeconds.size(), dag.size());
    EvalResult r = evaluator().evaluate(cfg, App::SNAP);
    for (double ts : cost.taskSeconds)
        EXPECT_EQ(bits(ts), bits(64e9 / r.perf.flops));
    EXPECT_GT(cost.edgeBandwidthBps, 0.0);
    EXPECT_GT(cost.edgeLatencySeconds, 0.0);
    // Zero bytes cost exactly zero: no latency leak.
    EXPECT_EQ(cost.edgeSeconds(0.0), 0.0);
    EXPECT_GT(cost.edgeSeconds(1.0), cost.edgeLatencySeconds);
}

TEST(DagScheduler, ZeroCommMakespanReducesToTheCriticalPath)
{
    // The acceptance gate: zero-byte edges, nodes >= tasks -> every
    // scheduler reproduces the analytic critical path bit-for-bit.
    NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::wavefront(6, 64e9, 0.0, App::SNAP);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, network());
    const double cp = criticalPathSeconds(dag, cost);
    ASSERT_GT(cp, 0.0);
    for (DagScheduler s : allDagSchedulers()) {
        Schedule sch = scheduleDag(dag, cost, s,
                                   static_cast<int>(dag.size()));
        EXPECT_EQ(bits(sch.makespanSeconds), bits(cp))
            << dagSchedulerName(s);
        EXPECT_EQ(sch.totalCommSeconds, 0.0) << dagSchedulerName(s);
        EXPECT_EQ(sch.edgesCosted, 0u) << dagSchedulerName(s);
    }
}

TEST(DagScheduler, ZeroCommReductionHoldsForEveryShape)
{
    NodeConfig cfg = NodeConfig::bestMean();
    const TaskDag dags[] = {
        TaskDag::stencilHalo(5, 4, 32e9, 0.0, App::CoMD),
        TaskDag::forkJoin(6, 3, 32e9, 0.0, App::LULESH),
        TaskDag::reductionTree(12, 3, 32e9, 0.0, App::HPGMG),
        TaskDag::randomLayered(5, 5, 0.5, 17, 32e9, 0.0, App::XSBench),
    };
    for (const TaskDag &dag : dags) {
        DagCostModel cost =
            DagCostModel::build(dag, evaluator(), cfg, network());
        const double cp = criticalPathSeconds(dag, cost);
        for (DagScheduler s : allDagSchedulers()) {
            Schedule sch = scheduleDag(dag, cost, s,
                                       static_cast<int>(dag.size()));
            EXPECT_EQ(bits(sch.makespanSeconds), bits(cp))
                << dag.label() << " under " << dagSchedulerName(s);
        }
    }
}

TEST(DagScheduler, SchedulesAreDeterministic)
{
    NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::randomLayered(8, 8, 0.35, 5, 48e9, 16e6,
                                         App::CoMD);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, network());
    for (DagScheduler s : allDagSchedulers()) {
        Schedule a = scheduleDag(dag, cost, s, 16);
        Schedule b = scheduleDag(dag, cost, s, 16);
        ASSERT_EQ(a.placements.size(), b.placements.size());
        EXPECT_EQ(bits(a.makespanSeconds), bits(b.makespanSeconds));
        for (std::size_t i = 0; i < a.placements.size(); ++i) {
            EXPECT_EQ(a.placements[i].node, b.placements[i].node);
            EXPECT_EQ(bits(a.placements[i].startSeconds),
                      bits(b.placements[i].startSeconds));
            EXPECT_EQ(bits(a.placements[i].finishSeconds),
                      bits(b.placements[i].finishSeconds));
        }
    }
}

TEST(DagScheduler, ScheduleRespectsDependenciesAndMakespan)
{
    NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::stencilHalo(8, 6, 48e9, 32e6, App::MiniAMR);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, network());
    for (DagScheduler s : allDagSchedulers()) {
        Schedule sch = scheduleDag(dag, cost, s, 8);
        double latest = 0.0;
        for (const DagTask &t : dag.tasks()) {
            const TaskPlacement &p = sch.placements[t.id];
            EXPECT_GE(p.node, 0);
            EXPECT_LT(p.node, 8);
            EXPECT_GE(p.finishSeconds, p.startSeconds);
            latest = std::max(latest, p.finishSeconds);
            // No task starts before a predecessor finishes.
            for (const DagEdge &d : t.deps)
                EXPECT_GE(p.startSeconds,
                          sch.placements[d.task].finishSeconds)
                    << "task " << t.id << " dep " << d.task;
        }
        EXPECT_EQ(bits(sch.makespanSeconds), bits(latest));
        EXPECT_GT(sch.utilization(), 0.0);
        EXPECT_LE(sch.utilization(), 1.0 + 1e-12);
        EXPECT_LE(sch.speedup(), 8.0 + 1e-9);
    }
}

TEST(DagScheduler, OneNodeRoundRobinSerializesExactly)
{
    NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::wavefront(5, 32e9, 8e6, App::LULESH);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, network());
    Schedule sch = scheduleDag(dag, cost, DagScheduler::RoundRobin, 1);
    // One node, id-order placement: the makespan accumulates the same
    // addition sequence as totalTaskSeconds() -> bitwise equal, and
    // nothing ever crosses a node boundary.
    EXPECT_EQ(bits(sch.makespanSeconds), bits(cost.totalTaskSeconds()));
    EXPECT_EQ(sch.totalCommSeconds, 0.0);
    EXPECT_EQ(sch.edgesCosted, 0u);
}

TEST(DagScheduler, SmartSchedulersBeatRoundRobinOnCommHeavyDags)
{
    NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::randomLayered(10, 12, 0.4, 9, 48e9, 64e6,
                                         App::SNAP);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, network());
    Schedule cp =
        scheduleDag(dag, cost, DagScheduler::CriticalPath, 16);
    Schedule mm = scheduleDag(dag, cost, DagScheduler::MinMin, 16);
    Schedule rr = scheduleDag(dag, cost, DagScheduler::RoundRobin, 16);
    EXPECT_LE(cp.makespanSeconds, rr.makespanSeconds);
    EXPECT_LE(mm.makespanSeconds, rr.makespanSeconds);
}

TEST(DagScheduler, MoreNodesNeverHurtTheListSchedulers)
{
    NodeConfig cfg = NodeConfig::bestMean();
    TaskDag dag = TaskDag::forkJoin(16, 4, 48e9, 8e6, App::HPGMG);
    DagCostModel cost =
        DagCostModel::build(dag, evaluator(), cfg, network());
    Schedule narrow =
        scheduleDag(dag, cost, DagScheduler::CriticalPath, 2);
    Schedule wide =
        scheduleDag(dag, cost, DagScheduler::CriticalPath, 16);
    EXPECT_LE(wide.makespanSeconds, narrow.makespanSeconds + 1e-12);
}
