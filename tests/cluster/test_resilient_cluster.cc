/**
 * @file
 * ResilientClusterEvaluator: the zero-resiliency bit-identical
 * reduction to ClusterEvaluator, cluster.ras. config-file bindings,
 * the spec's range checks, fabric-drained checkpoints, the protection
 * ladder's effect on effective exaflops, determinism of the sharded
 * protection sweep and the availability-constrained best-config
 * search, and the protection sweep's quarantine of invalid cells.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "cluster/cluster_config_io.hh"
#include "cluster/resilient_cluster.hh"
#include "cluster/resilient_cluster_io.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

ClusterEvaluator
clusterAt(int nodes)
{
    ClusterConfig c = ClusterConfig::exascale();
    c.nodes = nodes;
    return ClusterEvaluator(evaluator(), c);
}

} // anonymous namespace

TEST(ResilientCluster, ZeroSpecReducesBitIdenticallyToClusterEvaluator)
{
    // ResilienceSpec::none() disables faults and RMT, so the effective
    // projection must be the ClusterEvaluator number bit-for-bit
    // (x * 1.0 / 1.0), not merely close.
    ClusterEvaluator ce = clusterAt(100000);
    ResilientClusterEvaluator rce(ce, ResilienceSpec::none());
    NodeConfig cfg = NodeConfig::bestMean();
    CommSpec a2a;
    a2a.pattern = CommPattern::AllToAll;
    for (App app : {App::MaxFlops, App::CoMD, App::SNAP}) {
        for (const CommSpec &spec : {CommSpec::none(), CommSpec{}, a2a}) {
            ClusterResult base = ce.evaluate(cfg, app, spec);
            ResilientResult r = rce.evaluate(cfg, app, spec);
            EXPECT_EQ(r.effectiveExaflops, base.systemExaflops);
            EXPECT_EQ(r.systemMw, base.systemMw);
            EXPECT_EQ(r.ckptEfficiency, 1.0);
            EXPECT_EQ(r.rmtSlowdown, 1.0);
        }
    }
}

TEST(ResilientCluster, SpecConfigRoundTrips)
{
    // Every field off its default, so a key missing from the field
    // list, or bound to the wrong member, shows up here.
    ResilienceSpec s;
    s.faultsEnabled = false;
    s.ras.dramEcc = false;
    s.ras.sramEcc = false;
    s.ras.gpuRmt = true;
    s.ras.ntcSerMultiplier = 3.5;
    s.rmtPolicy = RmtPolicy::Full;
    s.checkpoint.checkpointBytes = 123e9;
    s.checkpoint.ioBandwidthBps = 7e9;
    s.checkpoint.overheadS = 2.5;
    s.checkpoint.restartExtraS = 45.0;
    s.checkpointViaFabric = true;

    const Config text = resilienceSpecToConfig(s);
    EXPECT_EQ(text.toString(),
              "cluster.ras.checkpoint_bytes = 123000000000\n"
              "cluster.ras.checkpoint_overhead_s = 2.5\n"
              "cluster.ras.checkpoint_via_fabric = true\n"
              "cluster.ras.dram_ecc = false\n"
              "cluster.ras.faults_enabled = false\n"
              "cluster.ras.gpu_rmt = true\n"
              "cluster.ras.io_bandwidth_bps = 7000000000\n"
              "cluster.ras.ntc_ser_multiplier = 3.5\n"
              "cluster.ras.restart_extra_s = 45\n"
              "cluster.ras.rmt_policy = full\n"
              "cluster.ras.sram_ecc = false\n");

    auto t = tryResilienceSpecFromConfig(text);
    ASSERT_TRUE(t.ok()) << t.status().toString();
    EXPECT_EQ(t->faultsEnabled, s.faultsEnabled);
    EXPECT_EQ(t->ras.dramEcc, s.ras.dramEcc);
    EXPECT_EQ(t->ras.sramEcc, s.ras.sramEcc);
    EXPECT_EQ(t->ras.gpuRmt, s.ras.gpuRmt);
    EXPECT_EQ(t->ras.ntcSerMultiplier, s.ras.ntcSerMultiplier);
    EXPECT_EQ(t->rmtPolicy, s.rmtPolicy);
    EXPECT_EQ(t->checkpoint.checkpointBytes, s.checkpoint.checkpointBytes);
    EXPECT_EQ(t->checkpoint.ioBandwidthBps, s.checkpoint.ioBandwidthBps);
    EXPECT_EQ(t->checkpoint.overheadS, s.checkpoint.overheadS);
    EXPECT_EQ(t->checkpoint.restartExtraS, s.checkpoint.restartExtraS);
    EXPECT_EQ(t->checkpointViaFabric, s.checkpointViaFabric);
}

TEST(ResilientCluster, ClusterConfigIoToleratesRasKeys)
{
    // One file holds the fabric and the resiliency layer side by side;
    // each loader validates its own prefix and skips the other's.
    Config cfg;
    cfg.set("cluster.nodes", 8000);
    cfg.set("cluster.ras.dram_ecc", true);
    cfg.set("cluster.ras.rmt_policy", std::string("full"));
    ClusterConfig c = *tryClusterConfigFromConfig(cfg);
    EXPECT_EQ(c.nodes, 8000);
    ResilienceSpec s = *tryResilienceSpecFromConfig(cfg);
    EXPECT_TRUE(s.ras.dramEcc);
    EXPECT_EQ(s.rmtPolicy, RmtPolicy::Full);
}

// The fatal loader is gone; CLIs unwrap the error at their own
// boundary. The test keeps its name and pins the Status.
TEST(ResilientClusterDeathTest, UnknownRasKeyIsFatal)
{
    Config cfg;
    cfg.set("cluster.ras.dram_ec", true);   // typo
    auto s = tryResilienceSpecFromConfig(cfg);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(s.status().message(),
              "unknown resilience-config key 'cluster.ras.dram_ec'");

    cfg = *Config::tryFromString("cluster.ras.dram_ec = true\n", "r.ini");
    EXPECT_EQ(tryResilienceSpecFromConfig(cfg).status().message(),
              "unknown resilience-config key 'cluster.ras.dram_ec' "
              "(r.ini:1)");
}

// A spec that validates never reaches the checkpoint model's
// assertions: a negative overhead made the interval NaN, and an NTC
// multiplier near DBL_MAX made the MTTF zero.
TEST(ResilientCluster, SpecRejectsValuesTheCheckpointModelCannotPlan)
{
    const auto rejects = [](auto &&edit) {
        ResilienceSpec s;
        edit(s);
        return s.tryValidate().code() == ErrorCode::OutOfRange;
    };
    EXPECT_TRUE(rejects([](ResilienceSpec &s) {
        s.checkpoint.overheadS = -1000.0;
    }));
    EXPECT_TRUE(rejects([](ResilienceSpec &s) {
        s.checkpoint.restartExtraS = -1.0;
    }));
    EXPECT_TRUE(rejects([](ResilienceSpec &s) {
        s.checkpoint.checkpointBytes = 0.5;
    }));
    EXPECT_TRUE(rejects([](ResilienceSpec &s) {
        s.ras.ntcSerMultiplier = 1e308;
    }));

    // The accepted extremes, on the largest machine, still plan.
    ResilienceSpec edge;
    edge.ras.ntcSerMultiplier = ResilienceSpec::maxNtcSerMultiplier;
    edge.checkpoint.checkpointBytes = 1.0;
    edge.checkpoint.overheadS = 0.0;
    edge.checkpoint.restartExtraS = 0.0;
    ASSERT_TRUE(edge.tryValidate().ok());
    NodeConfig cfg = NodeConfig::bestMean();
    cfg.opts.ntc = true;
    const ClusterEvaluator ce = clusterAt(100000000);
    ResilientResult r = ResilientClusterEvaluator(ce, edge).evaluate(
        cfg, App::CoMD, CommSpec{});
    EXPECT_GT(r.systemMttfHours, 0.0);
    EXPECT_GE(r.ckptEfficiency, 0.0);
    EXPECT_LE(r.ckptEfficiency, 1.0);
}

TEST(ResilientCluster, FabricDrainMatchesNetworkAllToAllRate)
{
    // With checkpointViaFabric the drain bandwidth is what the fabric
    // can actually deliver under the all-drain-at-once (all-to-all-
    // like) pattern; otherwise it is the fixed I/O knob.
    ClusterEvaluator ce = clusterAt(27000);
    ResilienceSpec fabric = ResilienceSpec::paper();
    fabric.checkpointViaFabric = true;
    ResilientClusterEvaluator via(ce, fabric);
    EXPECT_DOUBLE_EQ(
        via.checkpointDrainBps(),
        ce.network().deliveredGbs(CommPattern::AllToAll) * 1e9);

    ResilientClusterEvaluator fixed(ce, ResilienceSpec::paper());
    EXPECT_DOUBLE_EQ(fixed.checkpointDrainBps(),
                     ResilienceSpec::paper().checkpoint.ioBandwidthBps);

    ResilientResult r =
        via.evaluate(NodeConfig::bestMean(), App::CoMD, CommSpec{});
    EXPECT_DOUBLE_EQ(r.drainBps, via.checkpointDrainBps());
}

TEST(ResilientCluster, ProtectionLadderImprovesAvailability)
{
    ClusterEvaluator ce = clusterAt(100000);
    NodeConfig cfg = NodeConfig::bestMean();
    const std::vector<ProtectionVariant> &ladder =
        standardProtectionVariants();
    ASSERT_EQ(ladder.size(), 3u);

    std::vector<ResilientResult> r;
    for (const ProtectionVariant &v : ladder)
        r.push_back(ResilientClusterEvaluator(ce, v.spec)
                        .evaluate(cfg, App::CoMD, CommSpec{}));

    // Each rung raises system MTTF and interruption MTTF.
    for (size_t i = 1; i < r.size(); ++i) {
        EXPECT_GT(r[i].systemMttfHours, r[i - 1].systemMttfHours);
        EXPECT_GT(r[i].interruptionMttfHours,
                  r[i - 1].interruptionMttfHours);
    }
    // At 100,000 nodes ECC pays for itself in effective exaflops (the
    // no-protection machine drowns in checkpoint rework); RMT trades a
    // little throughput for another ~3.5x on interruption MTTF.
    EXPECT_GT(r[1].effectiveExaflops, r[0].effectiveExaflops);
    EXPECT_GT(r[2].rmtSlowdown, 1.0);
    EXPECT_LT(r[2].ckptEfficiency, 1.0);
}

TEST(ResilientCluster, InterruptionMttfScalesInverselyWithNodes)
{
    NodeConfig cfg = NodeConfig::bestMean();
    ResilienceSpec spec = ResilienceSpec::paper();
    ResilientResult at1k =
        ResilientClusterEvaluator(clusterAt(1000), spec)
            .evaluate(cfg, App::CoMD, CommSpec{});
    ResilientResult at100k =
        ResilientClusterEvaluator(clusterAt(100000), spec)
            .evaluate(cfg, App::CoMD, CommSpec{});
    EXPECT_NEAR(at1k.interruptionMttfHours,
                100.0 * at100k.interruptionMttfHours,
                at1k.interruptionMttfHours * 1e-9);
    EXPECT_NEAR(at1k.systemMttfHours, 100.0 * at100k.systemMttfHours,
                at1k.systemMttfHours * 1e-9);
}

TEST(ResilientCluster, SweepMatchesDirectEvaluationAndOrdering)
{
    ResilientScaleOutStudy study(evaluator(), ClusterConfig::exascale());
    const std::vector<ProtectionVariant> &variants =
        standardProtectionVariants();
    const std::vector<ClusterTopology> topos = {ClusterTopology::FatTree,
                                                ClusterTopology::Torus3D};
    const std::vector<int> sizes = {1000, 27000};
    NodeConfig cfg = NodeConfig::bestMean();

    auto sweep = study.sweep(cfg, App::CoMD, CommSpec{}, variants, topos,
                             sizes);
    ASSERT_EQ(sweep.size(), variants.size() * topos.size() * sizes.size());

    // Variant-major, then topology, then nodes.
    EXPECT_EQ(sweep[0].variant, 0u);
    EXPECT_EQ(sweep[0].topology, ClusterTopology::FatTree);
    EXPECT_EQ(sweep[0].nodes, 1000);
    EXPECT_EQ(sweep[1].nodes, 27000);
    EXPECT_EQ(sweep[2].topology, ClusterTopology::Torus3D);
    EXPECT_EQ(sweep[4].variant, 1u);

    // Each grid point is exactly the standalone evaluator's answer.
    for (const ResilientSweepPoint &p : sweep) {
        ClusterConfig cc = ClusterConfig::exascale();
        cc.nodes = p.nodes;
        cc.topology = p.topology;
        ClusterEvaluator ce(evaluator(), cc);
        ResilientClusterEvaluator rce(ce, variants[p.variant].spec);
        ResilientResult r = rce.evaluate(cfg, App::CoMD, CommSpec{});
        EXPECT_EQ(p.systemMttfHours, r.systemMttfHours);
        EXPECT_EQ(p.interruptionMttfHours, r.interruptionMttfHours);
        EXPECT_EQ(p.ckptEfficiency, r.ckptEfficiency);
        EXPECT_EQ(p.rmtSlowdown, r.rmtSlowdown);
        EXPECT_EQ(p.systemExaflops, r.cluster.systemExaflops);
        EXPECT_EQ(p.effectiveExaflops, r.effectiveExaflops);
        EXPECT_EQ(p.systemMw, r.systemMw);
    }
}

TEST(ResilientCluster, SweepQuarantinesInvalidCells)
{
    // Node count 0 fails validation: its cells are quarantined with the
    // diagnostic and their computed fields at the defaults, and every
    // other cell equals a sweep without that count, bit for bit. The
    // unprotected variant's MTTFs are finite and the protected ones'
    // interruption MTTF may be infinite.
    ResilientScaleOutStudy study(evaluator(), ClusterConfig::exascale());
    const NodeConfig cfg = NodeConfig::bestMean();
    const auto sweep = [&](const std::vector<int> &sizes) {
        return study.sweep(cfg, App::CoMD, CommSpec{},
                           standardProtectionVariants(),
                           allClusterTopologies(), sizes);
    };
    const auto points = sweep({0, 1000, 27000});
    const auto clean = sweep({1000, 27000});

    ASSERT_EQ(points.size(), 27u);
    ASSERT_EQ(clean.size(), 18u);
    int quarantined = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ResilientSweepPoint &p = points[i];
        if (i % 3 == 0) {
            ++quarantined;
            EXPECT_FALSE(p.ok) << i;
            EXPECT_EQ(p.nodes, 0) << i;
            EXPECT_EQ(p.rmtSlowdown, 1.0) << i;   // the default
            EXPECT_EQ(p.effectiveExaflops, 0.0) << i;
            continue;
        }
        const ResilientSweepPoint &q = clean[i / 3 * 2 + i % 3 - 1];
        EXPECT_TRUE(p.ok) << p.error;
        EXPECT_EQ(p.variant, q.variant);
        EXPECT_EQ(p.topology, q.topology);
        EXPECT_EQ(p.nodes, q.nodes);
        EXPECT_EQ(bits(p.systemMttfHours), bits(q.systemMttfHours));
        EXPECT_EQ(bits(p.interruptionMttfHours),
                  bits(q.interruptionMttfHours));
        EXPECT_EQ(bits(p.commEfficiency), bits(q.commEfficiency));
        EXPECT_EQ(bits(p.ckptEfficiency), bits(q.ckptEfficiency));
        EXPECT_EQ(bits(p.rmtSlowdown), bits(q.rmtSlowdown));
        EXPECT_EQ(bits(p.systemExaflops), bits(q.systemExaflops));
        EXPECT_EQ(bits(p.effectiveExaflops), bits(q.effectiveExaflops));
        EXPECT_EQ(bits(p.systemMw), bits(q.systemMw));
    }
    EXPECT_EQ(quarantined, 9);   // 3 variants x 3 topologies at 0 nodes
    EXPECT_EQ(points[0].error,
              "[out_of_range] ClusterConfig: bad node count 0");
}

TEST(ResilientCluster, SweepIsDeterministicAcrossThreadCounts)
{
    ResilientScaleOutStudy study(evaluator(), ClusterConfig::exascale());
    const std::vector<int> sizes = {1000, 8000, 27000};
    NodeConfig cfg = NodeConfig::bestMean();

    ThreadPool::setGlobalThreads(1);
    auto serial =
        study.sweep(cfg, App::CoMD, CommSpec{},
                    standardProtectionVariants(), allClusterTopologies(),
                    sizes);
    ThreadPool::setGlobalThreads(5);
    auto parallel =
        study.sweep(cfg, App::CoMD, CommSpec{},
                    standardProtectionVariants(), allClusterTopologies(),
                    sizes);
    ThreadPool::setGlobalThreads(0);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].variant, parallel[i].variant);
        EXPECT_EQ(serial[i].topology, parallel[i].topology);
        EXPECT_EQ(serial[i].nodes, parallel[i].nodes);
        EXPECT_EQ(serial[i].systemMttfHours, parallel[i].systemMttfHours);
        EXPECT_EQ(serial[i].interruptionMttfHours,
                  parallel[i].interruptionMttfHours);
        EXPECT_EQ(serial[i].commEfficiency, parallel[i].commEfficiency);
        EXPECT_EQ(serial[i].ckptEfficiency, parallel[i].ckptEfficiency);
        EXPECT_EQ(serial[i].rmtSlowdown, parallel[i].rmtSlowdown);
        EXPECT_EQ(serial[i].systemExaflops, parallel[i].systemExaflops);
        EXPECT_EQ(serial[i].effectiveExaflops,
                  parallel[i].effectiveExaflops);
        EXPECT_EQ(serial[i].systemMw, parallel[i].systemMw);
    }
}

TEST(ResilientCluster, SearchRespectsConstraintsAndPicksFeasibleMax)
{
    ResilientScaleOutStudy study(evaluator(), ClusterConfig::exascale());
    NodeConfig cfg = NodeConfig::bestMean();
    const std::vector<int> sizes = {1000, 27000, 100000};

    auto won = study.bestUnderAvailability(
        {cfg}, standardProtectionVariants(), sizes, App::CoMD,
        CommSpec{});
    ASSERT_TRUE(won.feasible);
    ResilientScaleOutStudy::SearchConstraints defaults;
    EXPECT_GE(won.result.interruptionMttfHours,
              defaults.minInterruptionMttfHours);
    EXPECT_LE(won.maxBudgetPowerW, defaults.nodePowerBudgetW);

    // The winner beats every other feasible candidate.
    for (size_t v = 0; v < standardProtectionVariants().size(); ++v) {
        for (int n : sizes) {
            ClusterConfig cc = ClusterConfig::exascale();
            cc.nodes = n;
            ClusterEvaluator ce(evaluator(), cc);
            ResilientClusterEvaluator rce(
                ce, standardProtectionVariants()[v].spec);
            ResilientResult r = rce.evaluate(cfg, App::CoMD, CommSpec{});
            if (r.interruptionMttfHours <
                    defaults.minInterruptionMttfHours ||
                evaluator().maxBudgetPower(cfg) >
                    defaults.nodePowerBudgetW)
                continue;
            EXPECT_GE(won.result.effectiveExaflops, r.effectiveExaflops);
        }
    }

    // An unreachable availability bar leaves the search infeasible.
    ResilientScaleOutStudy::SearchConstraints impossible;
    impossible.minInterruptionMttfHours = 1e12;
    auto none = study.bestUnderAvailability(
        {cfg}, standardProtectionVariants(), sizes, App::CoMD,
        CommSpec{}, impossible);
    EXPECT_FALSE(none.feasible);
}
