/**
 * @file
 * TaskDag: generator shapes (sizes, depths, edge counts), validation,
 * determinism of the seeded random generator, and the taskgraph.*
 * config-IO round trip with unknown-key rejection.
 */

#include <gtest/gtest.h>

#include "taskgraph/task_dag_io.hh"
#include "util/config.hh"

using namespace ena;

TEST(TaskDag, WavefrontShape)
{
    const int n = 8;
    TaskDag dag = TaskDag::wavefront(n, 1e9, 1e6, App::SNAP);
    EXPECT_EQ(dag.size(), static_cast<std::size_t>(n * n));
    // Anti-diagonal layers: 2n-1 of them, the widest has n tasks.
    EXPECT_EQ(dag.depth(), 2 * n - 1);
    EXPECT_EQ(dag.maxLayerWidth(), static_cast<std::size_t>(n));
    // Each interior cell consumes from its west and north neighbor.
    EXPECT_EQ(dag.numEdges(), static_cast<std::size_t>(2 * n * (n - 1)));
    EXPECT_EQ(dag.totalFlops(), n * n * 1e9);
    EXPECT_EQ(dag.totalEdgeBytes(), 2 * n * (n - 1) * 1e6);
    EXPECT_TRUE(dag.tryValidate().ok());
}

TEST(TaskDag, StencilHaloShape)
{
    const int ranks = 6, steps = 5;
    TaskDag dag = TaskDag::stencilHalo(ranks, steps, 1e9, 1e6, App::CoMD);
    EXPECT_EQ(dag.size(), static_cast<std::size_t>(ranks * steps));
    EXPECT_EQ(dag.depth(), steps);
    EXPECT_EQ(dag.maxLayerWidth(), static_cast<std::size_t>(ranks));
    EXPECT_TRUE(dag.tryValidate().ok());
}

TEST(TaskDag, ForkJoinShape)
{
    TaskDag dag = TaskDag::forkJoin(10, 3, 1e9, 1e6, App::HPGMG);
    EXPECT_EQ(dag.maxLayerWidth(), 10u);
    EXPECT_TRUE(dag.tryValidate().ok());
    // The last task joins every stage: it must have predecessors.
    EXPECT_FALSE(dag.task(static_cast<TaskId>(dag.size() - 1))
                     .deps.empty());
}

TEST(TaskDag, ReductionTreeFoldsToOneSink)
{
    TaskDag dag = TaskDag::reductionTree(16, 2, 1e9, 1e6, App::LULESH);
    // 16 leaves halved per step: 16+8+4+2+1 tasks, one terminal sink.
    EXPECT_EQ(dag.size(), 31u);
    std::size_t sinks = 0;
    for (const DagTask &t : dag.tasks())
        sinks += dag.succs(t.id).empty() ? 1 : 0;
    EXPECT_EQ(sinks, 1u);
    EXPECT_TRUE(dag.tryValidate().ok());
}

TEST(TaskDag, RandomLayeredIsSeedDeterministicWithNoSpuriousRoots)
{
    TaskDag a = TaskDag::randomLayered(6, 8, 0.4, 42, 1e9, 1e6,
                                       App::MiniAMR);
    TaskDag b = TaskDag::randomLayered(6, 8, 0.4, 42, 1e9, 1e6,
                                       App::MiniAMR);
    EXPECT_EQ(a.numEdges(), b.numEdges());
    ASSERT_EQ(a.size(), b.size());
    for (TaskId t = 0; t < a.size(); ++t) {
        EXPECT_EQ(a.task(t).deps.size(), b.task(t).deps.size()) << t;
        // Only layer 0 may be a root: the fallback same-column edge
        // guarantees every deeper task has at least one predecessor.
        if (a.task(t).layer > 0) {
            EXPECT_FALSE(a.task(t).deps.empty()) << t;
        }
    }
    // A different seed redraws the coin flips: some task's dependency
    // set must change.
    TaskDag c = TaskDag::randomLayered(6, 8, 0.4, 43, 1e9, 1e6,
                                       App::MiniAMR);
    bool differs = a.numEdges() != c.numEdges();
    for (TaskId t = 0; !differs && t < a.size(); ++t) {
        const auto &ad = a.task(t).deps, &cd = c.task(t).deps;
        differs = ad.size() != cd.size();
        for (std::size_t i = 0; !differs && i < ad.size(); ++i)
            differs = ad[i].task != cd[i].task;
    }
    EXPECT_TRUE(differs);
}

TEST(TaskDag, LayersFollowDependencies)
{
    TaskDag dag = TaskDag::wavefront(5, 1e9, 0.0, App::SNAP);
    for (const DagTask &t : dag.tasks()) {
        for (const DagEdge &d : t.deps)
            EXPECT_LT(dag.task(d.task).layer, t.layer);
    }
}

TEST(DagShape, NamesRoundTripAndAliasesParse)
{
    for (DagShape s : allDagShapes()) {
        auto back = tryDagShapeFromName(dagShapeName(s));
        ASSERT_TRUE(back.ok()) << dagShapeName(s);
        EXPECT_EQ(*back, s);
    }
    EXPECT_EQ(*tryDagShapeFromName("sweep"), DagShape::Wavefront);
    EXPECT_EQ(*tryDagShapeFromName("halo"), DagShape::StencilHalo);
    EXPECT_EQ(*tryDagShapeFromName("forkjoin"), DagShape::ForkJoin);
    EXPECT_EQ(*tryDagShapeFromName("tree"), DagShape::ReductionTree);
    EXPECT_FALSE(tryDagShapeFromName("noSuchShape").ok());
}

TEST(TaskGraphSpec, ConfigRoundTrip)
{
    TaskGraphSpec s;
    s.shape = DagShape::RandomLayered;
    s.app = App::HPGMG;
    s.size = 9;
    s.depth = 7;
    s.taskGflops = 12.5;
    s.edgeMb = 3.25;
    s.edgeProb = 0.5;
    s.seed = 99;
    s.fanin = 3;

    // bench_taskgraph sends these bytes as part of a request's config.
    const Config text = taskGraphSpecToConfig(s);
    EXPECT_EQ(text.toString(), "taskgraph.app = HPGMG\n"
                               "taskgraph.depth = 7\n"
                               "taskgraph.edge_mb = 3.25\n"
                               "taskgraph.edge_prob = 0.5\n"
                               "taskgraph.fanin = 3\n"
                               "taskgraph.seed = 99\n"
                               "taskgraph.shape = random-layered\n"
                               "taskgraph.size = 9\n"
                               "taskgraph.task_gflops = 12.5\n");

    auto back = tryTaskGraphSpecFromConfig(text);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->shape, s.shape);
    EXPECT_EQ(back->app, s.app);
    EXPECT_EQ(back->size, s.size);
    EXPECT_EQ(back->depth, s.depth);
    EXPECT_EQ(back->taskGflops, s.taskGflops);
    EXPECT_EQ(back->edgeMb, s.edgeMb);
    EXPECT_EQ(back->edgeProb, s.edgeProb);
    EXPECT_EQ(back->seed, s.seed);
    EXPECT_EQ(back->fanin, s.fanin);
}

TEST(TaskGraphSpec, UnknownTaskgraphKeyIsRejected)
{
    Config cfg =
        *Config::tryFromString("taskgraph.shpae = wavefront\n", "t.ini");
    auto r = tryTaskGraphSpecFromConfig(cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(r.status().message(),
              "unknown taskgraph-config key 'taskgraph.shpae' (t.ini:1)");
}

TEST(TaskGraphSpec, SeedPastLongLongIsRejected)
{
    Config cfg = *Config::tryFromString(
        "taskgraph.seed = 99999999999999999999\n", "t.ini");
    auto r = tryTaskGraphSpecFromConfig(cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ParseError);
    EXPECT_EQ(r.status().message(),
              "config key 'taskgraph.seed' (t.ini:1): "
              "'99999999999999999999' is not an integer");
}

TEST(TaskGraphSpec, NonTaskgraphKeysAreIgnored)
{
    Config cfg = *Config::tryFromString(
        "ehp.cus = 256\ncluster.nodes = 64\ntaskgraph.size = 4\n");
    auto r = tryTaskGraphSpecFromConfig(cfg);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r->size, 4);
}

TEST(TaskGraphSpec, ValidationRejectsBadValues)
{
    TaskGraphSpec s;
    s.size = 0;
    EXPECT_FALSE(s.tryValidate().ok());
    s = TaskGraphSpec{};
    s.taskGflops = -1.0;
    EXPECT_FALSE(s.tryValidate().ok());
    s = TaskGraphSpec{};
    s.edgeProb = 1.5;
    EXPECT_FALSE(s.tryValidate().ok());
    s = TaskGraphSpec{};
    s.fanin = 1;
    EXPECT_FALSE(s.tryValidate().ok());
}

TEST(TaskGraphSpec, BuildDispatchesByShape)
{
    for (DagShape shape : allDagShapes()) {
        TaskGraphSpec s;
        s.shape = shape;
        s.size = 6;
        s.depth = 4;
        TaskDag dag = s.build();
        EXPECT_GT(dag.size(), 0u) << dagShapeName(shape);
        EXPECT_TRUE(dag.tryValidate().ok()) << dagShapeName(shape);
    }
}
