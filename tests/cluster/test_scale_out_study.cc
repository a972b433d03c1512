/**
 * @file
 * ScaleOutStudy: weak/strong scaling shapes, the communication-aware
 * Fig. 14 sweep's analytic column, serial/parallel determinism of the
 * sharded topology sweep, and its journal keys and replay.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

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

TEST(ScaleOutStudy, TopologySweepJournalKeysIncludeTheApp)
{
    // A journal shared with a LULESH sweep must not replay LULESH's
    // cells into a CoMD sweep of the same fabric, nor a default node's
    // cells into a sweep of a node with fewer GPU chiplets: the key
    // names every node field, not only the DSE knobs.
    const std::string path = "test_scale_out_journal_app.tmp";
    std::remove(path.c_str());
    const std::vector<ClusterTopology> fat_tree = {ClusterTopology::FatTree};
    const std::vector<int> sizes = {1024};
    const NodeConfig cfg = NodeConfig::bestMean();
    NodeConfig four_chiplets = cfg;
    four_chiplets.gpuChiplets = 4;
    const auto fresh = study().topologySweep(cfg, App::CoMD, CommSpec{},
                                             fat_tree, sizes, nullptr);
    const auto fresh4 = study().topologySweep(
        four_chiplets, App::CoMD, CommSpec{}, fat_tree, sizes, nullptr);
    ASSERT_NE(fresh4[0].systemMw, fresh[0].systemMw);

    study().topologySweep(cfg, App::LULESH, CommSpec{}, fat_tree, sizes,
                          std::move(SweepJournal::open(path)).value().get());
    auto j = std::move(SweepJournal::open(path)).value();
    const auto shared = study().topologySweep(cfg, App::CoMD, CommSpec{},
                                              fat_tree, sizes, j.get());
    EXPECT_EQ(j->appendedRecords(), 1u);   // recomputed, not replayed
    ASSERT_EQ(shared.size(), 1u);
    EXPECT_EQ(shared[0].systemExaflops, fresh[0].systemExaflops);
    EXPECT_EQ(shared[0].efficiency, fresh[0].efficiency);
    EXPECT_EQ(shared[0].systemMw, fresh[0].systemMw);

    j = std::move(SweepJournal::open(path)).value();
    const auto shared4 = study().topologySweep(
        four_chiplets, App::CoMD, CommSpec{}, fat_tree, sizes, j.get());
    EXPECT_EQ(j->appendedRecords(), 1u);   // recomputed, not replayed
    ASSERT_EQ(shared4.size(), 1u);
    EXPECT_EQ(shared4[0].systemExaflops, fresh4[0].systemExaflops);
    EXPECT_EQ(shared4[0].systemMw, fresh4[0].systemMw);
    std::remove(path.c_str());
}

TEST(ScaleOutStudy, TopologySweepReplaysItsOwnJournalBitForBit)
{
    // Node count 0 quarantines its cells, so the replay covers the
    // error text too.
    const std::string path = "test_scale_out_journal_replay.tmp";
    std::remove(path.c_str());
    CommSpec a2a;
    a2a.pattern = CommPattern::AllToAll;
    const std::vector<int> sizes = {0, 1000, 27000};
    const NodeConfig cfg = NodeConfig::bestMean();
    const auto sweep = [&](SweepJournal *j) {
        return study().topologySweep(cfg, App::CoMD, a2a,
                                     allClusterTopologies(), sizes, j);
    };
    std::vector<TopologyPoint> fresh;
    {
        auto j = std::move(SweepJournal::open(path)).value();
        fresh = sweep(j.get());
        EXPECT_EQ(j->appendedRecords(), fresh.size());
    }
    auto j = std::move(SweepJournal::open(path)).value();
    const auto replayed = sweep(j.get());
    EXPECT_EQ(j->appendedRecords(), 0u);   // every cell replayed

    ASSERT_EQ(replayed.size(), fresh.size());
    int quarantined = 0;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const TopologyPoint &a = fresh[i], &b = replayed[i];
        EXPECT_EQ(b.topology, a.topology);
        EXPECT_EQ(b.nodes, a.nodes);
        EXPECT_EQ(bits(b.avgHops), bits(a.avgHops));
        EXPECT_EQ(bits(b.bisectionGbs), bits(a.bisectionGbs));
        EXPECT_EQ(bits(b.efficiency), bits(a.efficiency));
        EXPECT_EQ(bits(b.systemExaflops), bits(a.systemExaflops));
        EXPECT_EQ(bits(b.systemMw), bits(a.systemMw));
        EXPECT_EQ(b.ok, a.ok);
        EXPECT_EQ(b.error, a.error);
        quarantined += !a.ok;
    }
    EXPECT_EQ(quarantined, 3);
    EXPECT_EQ(fresh[0].error, "[out_of_range] topology sweep cell 0: "
                              "ClusterConfig: bad node count 0");
    std::remove(path.c_str());
}
