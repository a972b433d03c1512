/**
 * @file
 * ScaleOutStudy: weak/strong scaling shapes, the communication-aware
 * Fig. 14 sweep's analytic column, serial/parallel determinism of the
 * sharded topology sweep, and the sweep's quarantine of invalid cells.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "cluster/scale_out_study.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

ScaleOutStudy
study()
{
    return ScaleOutStudy(evaluator(), ClusterConfig::exascale());
}

const std::vector<int> counts = {1, 64, 512, 4096, 32768};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // anonymous namespace

TEST(ScaleOutStudy, WeakScalingStartsIdealAndNeverRecovers)
{
    auto curve = study().weakScaling(NodeConfig::bestMean(), App::CoMD,
                                     CommSpec{}, counts);
    ASSERT_EQ(curve.size(), counts.size());
    // One node has no one to talk to: efficiency is exactly 1.
    EXPECT_EQ(curve[0].nodes, 1);
    EXPECT_EQ(curve[0].efficiency, 1.0);
    EXPECT_EQ(curve[0].overheadRatio, 0.0);
    for (size_t i = 1; i < curve.size(); ++i) {
        EXPECT_LE(curve[i].efficiency, curve[i - 1].efficiency + 1e-12)
            << counts[i];
        EXPECT_GT(curve[i].efficiency, 0.0);
        // More nodes still means more delivered exaflops under weak
        // scaling, just at decaying efficiency.
        EXPECT_GT(curve[i].systemExaflops, curve[i - 1].systemExaflops);
    }
}

TEST(ScaleOutStudy, StrongScalingDecaysFasterThanWeak)
{
    NodeConfig cfg = NodeConfig::bestMean();
    auto weak =
        study().weakScaling(cfg, App::LULESH, CommSpec{}, counts);
    auto strong =
        study().strongScaling(cfg, App::LULESH, CommSpec{}, counts);
    ASSERT_EQ(weak.size(), strong.size());
    EXPECT_EQ(strong[0].efficiency, 1.0);
    for (size_t i = 1; i < counts.size(); ++i)
        EXPECT_LT(strong[i].efficiency, weak[i].efficiency)
            << counts[i];
}

TEST(ScaleOutStudy, Fig14AnalyticColumnIsTheProjector)
{
    // The analytic side of the comm-aware Fig. 14 must be exactly the
    // core sweep (same code path, same numbers — the bench gates the
    // zero-comm case; this pins the columns at full intensity too).
    const std::vector<int> cus = {192, 256, 320};
    ExascaleProjector proj(evaluator(),
                           ClusterConfig::exascale().nodes);
    auto reference = proj.sweepCus(cus);
    auto aware = study().fig14(cus, CommSpec{});
    ASSERT_EQ(aware.size(), cus.size());
    for (size_t i = 0; i < cus.size(); ++i) {
        EXPECT_EQ(aware[i].cus, reference[i].cus);
        EXPECT_EQ(aware[i].analyticExaflops,
                  reference[i].systemExaflops);
        EXPECT_EQ(aware[i].analyticMw, reference[i].systemMw);
        EXPECT_LE(aware[i].commExaflops, aware[i].analyticExaflops);
        EXPECT_DOUBLE_EQ(aware[i].commExaflops,
                         aware[i].analyticExaflops *
                             aware[i].efficiency);
    }
}

TEST(ScaleOutStudy, TopologySweepIsDeterministicAcrossThreadCounts)
{
    const std::vector<int> sizes = {1000, 8000, 27000};
    CommSpec a2a;
    a2a.pattern = CommPattern::AllToAll;
    NodeConfig cfg = NodeConfig::bestMean();

    ThreadPool::setGlobalThreads(1);
    auto serial = study().topologySweep(cfg, App::CoMD, a2a,
                                        allClusterTopologies(), sizes);
    ThreadPool::setGlobalThreads(5);
    auto parallel = study().topologySweep(cfg, App::CoMD, a2a,
                                          allClusterTopologies(), sizes);
    ThreadPool::setGlobalThreads(0);

    ASSERT_EQ(serial.size(), allClusterTopologies().size() * sizes.size());
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].topology, parallel[i].topology);
        EXPECT_EQ(serial[i].nodes, parallel[i].nodes);
        EXPECT_EQ(serial[i].avgHops, parallel[i].avgHops);
        EXPECT_EQ(serial[i].bisectionGbs, parallel[i].bisectionGbs);
        EXPECT_EQ(serial[i].efficiency, parallel[i].efficiency);
        EXPECT_EQ(serial[i].systemExaflops, parallel[i].systemExaflops);
        EXPECT_EQ(serial[i].systemMw, parallel[i].systemMw);
    }
}

TEST(ScaleOutStudy, TopologySweepIsTopologyMajor)
{
    const std::vector<int> sizes = {1000, 8000};
    auto sweep =
        study().topologySweep(NodeConfig::bestMean(), App::CoMD,
                              CommSpec{}, allClusterTopologies(), sizes);
    ASSERT_EQ(sweep.size(), 6u);
    EXPECT_EQ(sweep[0].topology, ClusterTopology::FatTree);
    EXPECT_EQ(sweep[0].nodes, 1000);
    EXPECT_EQ(sweep[1].topology, ClusterTopology::FatTree);
    EXPECT_EQ(sweep[1].nodes, 8000);
    EXPECT_EQ(sweep[2].topology, ClusterTopology::Dragonfly);
    EXPECT_EQ(sweep[5].topology, ClusterTopology::Torus3D);
}

TEST(ScaleOutStudy, TopologySweepQuarantinesInvalidCells)
{
    // Node count 0 fails validation: its cells are quarantined with the
    // diagnostic and their computed fields at the defaults, and every
    // other cell equals a sweep without that count, bit for bit.
    CommSpec a2a;
    a2a.pattern = CommPattern::AllToAll;
    const NodeConfig cfg = NodeConfig::bestMean();
    const auto sweep = [&](const std::vector<int> &sizes) {
        return study().topologySweep(cfg, App::CoMD, a2a,
                                     allClusterTopologies(), sizes);
    };
    const auto points = sweep({0, 1000, 27000});
    const auto clean = sweep({1000, 27000});

    ASSERT_EQ(points.size(), 9u);
    ASSERT_EQ(clean.size(), 6u);
    int quarantined = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const TopologyPoint &p = points[i];
        if (i % 3 == 0) {
            ++quarantined;
            EXPECT_FALSE(p.ok) << i;
            EXPECT_EQ(p.nodes, 0) << i;
            EXPECT_EQ(p.systemExaflops, 0.0) << i;
            EXPECT_EQ(p.avgHops, 0.0) << i;
            continue;
        }
        const TopologyPoint &q = clean[i / 3 * 2 + i % 3 - 1];
        EXPECT_TRUE(p.ok) << p.error;
        EXPECT_EQ(p.topology, q.topology);
        EXPECT_EQ(p.nodes, q.nodes);
        EXPECT_EQ(bits(p.avgHops), bits(q.avgHops));
        EXPECT_EQ(bits(p.bisectionGbs), bits(q.bisectionGbs));
        EXPECT_EQ(bits(p.efficiency), bits(q.efficiency));
        EXPECT_EQ(bits(p.systemExaflops), bits(q.systemExaflops));
        EXPECT_EQ(bits(p.systemMw), bits(q.systemMw));
    }
    EXPECT_EQ(quarantined, 3);
    EXPECT_EQ(points[0].error, "[out_of_range] topology sweep cell 0: "
                               "ClusterConfig: bad node count 0");
}
