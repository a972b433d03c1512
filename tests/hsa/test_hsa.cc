/**
 * @file
 * Unit tests for the HSA substrate: signals, AQL queues, and TaskDag
 * replays through them.
 */

#include <gtest/gtest.h>

#include "hsa/aql_queue.hh"
#include "hsa/signal.hh"
#include "sim/simulation.hh"
#include "taskgraph/aql_replay.hh"

using namespace ena;

// ---- signals ---------------------------------------------------------

TEST(HsaSignal, DecrementFiresWaitersAtZero)
{
    HsaSignal s(2);
    int fired = 0;
    s.waitZero([&] { ++fired; });
    s.decrement();
    EXPECT_EQ(fired, 0);
    s.decrement();
    EXPECT_EQ(fired, 1);
}

TEST(HsaSignal, WaitOnZeroFiresImmediately)
{
    HsaSignal s(0);
    int fired = 0;
    s.waitZero([&] { ++fired; });
    EXPECT_EQ(fired, 1);
}

TEST(HsaSignal, MultipleWaiters)
{
    HsaSignal s(1);
    int fired = 0;
    for (int i = 0; i < 5; ++i)
        s.waitZero([&] { ++fired; });
    s.decrement();
    EXPECT_EQ(fired, 5);
}

TEST(HsaSignalDeathTest, UnderflowPanics)
{
    HsaSignal s(0, "x");
    EXPECT_DEATH(s.decrement(), "below 0");
}

// ---- AQL queue -------------------------------------------------------

namespace {

AqlPacket
packet(Tick dur, HsaSignal *done)
{
    AqlPacket p;
    p.kernelTicks = dur;
    p.completion = done;
    return p;
}

} // anonymous namespace

TEST(AqlQueue, DispatchAddsLatencyAndRunsKernel)
{
    Simulation sim;
    AqlQueueParams qp;
    qp.dispatchLatency = 100;
    auto *q = sim.create<AqlQueue>("q", qp);
    sim.initAll();
    HsaSignal done(1);
    q->submit(packet(1000, &done));
    sim.run();
    EXPECT_EQ(done.value(), 0);
    EXPECT_EQ(sim.curTick(), 1100u);
    EXPECT_TRUE(q->idle());
    EXPECT_EQ(q->packetsDispatched(), 1u);
}

TEST(AqlQueue, ConcurrencyLimitSerializesExcess)
{
    Simulation sim;
    AqlQueueParams qp;
    qp.dispatchLatency = 0;
    qp.deviceConcurrency = 2;
    auto *q = sim.create<AqlQueue>("q", qp);
    sim.initAll();
    HsaSignal done(4);
    for (int i = 0; i < 4; ++i)
        q->submit(packet(1000, &done));
    sim.run();
    EXPECT_EQ(done.value(), 0);
    // Two waves of two kernels each.
    EXPECT_EQ(sim.curTick(), 2000u);
}

TEST(AqlQueueDeathTest, RingOverflowIsFatal)
{
    Simulation sim;
    AqlQueueParams qp;
    qp.ringSlots = 2;
    qp.deviceConcurrency = 1;
    qp.dispatchLatency = 0;
    auto *q = sim.create<AqlQueue>("q", qp);
    sim.initAll();
    HsaSignal done(3);
    q->submit(packet(1000, &done));   // runs
    q->submit(packet(1000, &done));   // queued
    q->submit(packet(1000, &done));   // queued
    EXPECT_EXIT(q->submit(packet(1000, &done)),
                testing::ExitedWithCode(1), "overflow");
}

// ---- TaskDag replay --------------------------------------------------

namespace {

struct GraphFixture : testing::Test
{
    Simulation sim;
    std::vector<AqlQueue *> queues;
    TaskDag dag;
    std::vector<Tick> ticks;
    std::vector<int> agents;

    void
    build(int nqueues, Tick dispatch_latency = 0)
    {
        AqlQueueParams qp;
        qp.dispatchLatency = dispatch_latency;
        qp.ringSlots = 256;
        for (int i = 0; i < nqueues; ++i) {
            std::string name = "q";
            name += std::to_string(i);
            queues.push_back(sim.create<AqlQueue>(name, qp));
        }
    }

    /** A task of @p duration ticks on queue @p agent. */
    TaskId
    add(Tick duration, int agent, const std::vector<TaskId> &deps = {})
    {
        std::vector<DagEdge> edges;
        for (TaskId d : deps)
            edges.push_back({d, 0.0});
        ticks.push_back(duration);
        agents.push_back(agent);
        return dag.addTask(1.0, App::MaxFlops, std::move(edges));
    }

    AqlReplayResult
    replay()
    {
        return replayOnAqlQueues(sim, dag, queues, ticks, agents);
    }
};

} // anonymous namespace

TEST_F(GraphFixture, ChainRunsSequentially)
{
    build(1);
    TaskId a = add(100, 0);
    TaskId b = add(200, 0, {a});
    TaskId c = add(300, 0, {b});
    AqlReplayResult r = replay();
    EXPECT_EQ(r.makespan, 600u);
    EXPECT_EQ(criticalPathTicks(dag, ticks), 600u);
    EXPECT_EQ(r.finishedAt[a], 100u);
    EXPECT_EQ(r.finishedAt[b], 300u);
    EXPECT_EQ(r.finishedAt[c], 600u);
}

TEST_F(GraphFixture, IndependentTasksRunInParallel)
{
    build(4);
    for (int i = 0; i < 4; ++i)
        add(1000, i);
    AqlReplayResult r = replay();
    EXPECT_EQ(r.makespan, 1000u);
    EXPECT_EQ(criticalPathTicks(dag, ticks), 1000u);
}

TEST_F(GraphFixture, DiamondRespectsBothDependencies)
{
    build(2);
    TaskId a = add(100, 0);
    TaskId b = add(500, 0, {a});
    TaskId c = add(100, 1, {a});
    TaskId d = add(100, 0, {b, c});
    AqlReplayResult r = replay();
    // d starts only after the slower of b and c.
    EXPECT_EQ(r.finishedAt[d], 700u);
    EXPECT_EQ(criticalPathTicks(dag, ticks), 700u);
    EXPECT_EQ(r.finishedAt[c], 200u);
}

TEST_F(GraphFixture, MakespanAtLeastCriticalPath)
{
    build(2, /*dispatch latency=*/50);
    // A 4x4 sweep over 2 queues.
    std::vector<std::vector<TaskId>> grid(4, std::vector<TaskId>(4));
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            std::vector<TaskId> deps;
            if (i)
                deps.push_back(grid[i - 1][j]);
            if (j)
                deps.push_back(grid[i][j - 1]);
            grid[i][j] = add(100, (i + j) % 2, deps);
        }
    }
    AqlReplayResult r = replay();
    EXPECT_GE(r.makespan, criticalPathTicks(dag, ticks));
    EXPECT_EQ(criticalPathTicks(dag, ticks), 700u);   // 7 tasks x 100
}

TEST_F(GraphFixture, DispatchLatencyLengthensCriticalChains)
{
    build(1, 0);
    TaskId prev = add(100, 0);
    for (int i = 0; i < 9; ++i)
        prev = add(100, 0, {prev});
    EXPECT_EQ(replay().makespan, 1000u);

    // Same chain with a 1000-tick launch cost dominates the kernels.
    Simulation sim2;
    AqlQueueParams qp;
    qp.dispatchLatency = 1000;
    qp.ringSlots = 64;
    auto *q2 = sim2.create<AqlQueue>("q", qp);
    EXPECT_EQ(replayOnAqlQueues(sim2, dag, {q2}, ticks, agents).makespan,
              11000u);
}

TEST_F(GraphFixture, DeathOnForwardDependency)
{
    dag.addTask(1.0, App::MaxFlops);
    EXPECT_DEATH(dag.addTask(1.0, App::MaxFlops, {{5, 0.0}}),
                 "topological");
}
