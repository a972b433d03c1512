/**
 * @file
 * Determinism of the parallel sweep engine: every DSE entry point and
 * study must produce results element-for-element identical to a
 * single-threaded (ENA_THREADS=1 equivalent) run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/dse.hh"
#include "core/studies.hh"
#include "core/thermal_study.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

const NodeEvaluator &
evaluator()
{
    static NodeEvaluator eval;
    return eval;
}

/** Runs fn twice — serial pool, then oversubscribed pool — and hands
 *  both results to check for exact comparison. A DSE fn builds its own
 *  explorer: a second search on one explorer would reuse the first
 *  one's flops instead of computing them again. */
template <typename Fn, typename Check>
void
serialVsParallel(Fn &&fn, Check &&check)
{
    ThreadPool::setGlobalThreads(1);
    auto serial = fn();
    ThreadPool::setGlobalThreads(8);
    auto parallel = fn();
    ThreadPool::setGlobalThreads(0);
    check(serial, parallel);
}

} // anonymous namespace

TEST(ParallelSweep, SweepIsBitIdenticalToSerial)
{
    serialVsParallel(
        [] {
            return DesignSpaceExplorer(evaluator(), DseGrid::paperGrid(),
                                       160.0)
                .sweep(PowerOptConfig::none());
        },
        [](const std::vector<DsePoint> &a,
           const std::vector<DsePoint> &b) {
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].cfg.cus, b[i].cfg.cus);
                EXPECT_EQ(a[i].cfg.freqGhz, b[i].cfg.freqGhz);
                EXPECT_EQ(a[i].cfg.bwTbs, b[i].cfg.bwTbs);
                EXPECT_EQ(a[i].geomeanFlops, b[i].geomeanFlops);
                EXPECT_EQ(a[i].meanBudgetPowerW, b[i].meanBudgetPowerW);
                EXPECT_EQ(a[i].maxBudgetPowerW, b[i].maxBudgetPowerW);
                EXPECT_EQ(a[i].feasible, b[i].feasible);
            }
        });
}

TEST(ParallelSweep, BestMeanMatchesSerial)
{
    serialVsParallel(
        [] {
            return DesignSpaceExplorer(evaluator(), DseGrid::paperGrid(),
                                       160.0)
                .findBestMean(PowerOptConfig::none());
        },
        [](const NodeConfig &a, const NodeConfig &b) {
            EXPECT_EQ(a.cus, b.cus);
            EXPECT_EQ(a.freqGhz, b.freqGhz);
            EXPECT_EQ(a.bwTbs, b.bwTbs);
        });
}

TEST(ParallelSweep, BestForAppMatchesSerial)
{
    for (App app : {App::MaxFlops, App::XSBench, App::LULESH}) {
        serialVsParallel(
            [&] {
                return DesignSpaceExplorer(evaluator(),
                                           DseGrid::paperGrid(), 160.0)
                    .findBestForApp(app, PowerOptConfig::all());
            },
            [](const AppBest &a, const AppBest &b) {
                EXPECT_EQ(a.cfg.cus, b.cfg.cus);
                EXPECT_EQ(a.cfg.freqGhz, b.cfg.freqGhz);
                EXPECT_EQ(a.cfg.bwTbs, b.cfg.bwTbs);
                EXPECT_EQ(a.flops, b.flops);
                EXPECT_EQ(a.budgetPowerW, b.budgetPowerW);
            });
    }
}

TEST(ParallelSweep, TableIIMatchesSerial)
{
    serialVsParallel(
        [] {
            return DesignSpaceExplorer(evaluator(), DseGrid::paperGrid(),
                                       160.0)
                .tableII(NodeConfig::bestMean());
        },
        [](const std::vector<TableIIRow> &a,
           const std::vector<TableIIRow> &b) {
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].app, b[i].app);
                EXPECT_EQ(a[i].bestConfig.cus, b[i].bestConfig.cus);
                EXPECT_EQ(a[i].bestConfig.freqGhz,
                          b[i].bestConfig.freqGhz);
                EXPECT_EQ(a[i].bestConfig.bwTbs, b[i].bestConfig.bwTbs);
                EXPECT_EQ(a[i].benefitNoOptPct, b[i].benefitNoOptPct);
                EXPECT_EQ(a[i].benefitWithOptPct,
                          b[i].benefitWithOptPct);
            }
        });
}

TEST(ParallelSweep, OpbSweepMatchesSerial)
{
    OpbSweepStudy study(evaluator(), NodeConfig::bestMean());
    serialVsParallel(
        [&] {
            return study.sweepFrequency(
                App::CoMD, OpbSweepStudy::paperBandwidths(),
                {0.7, 0.9, 1.1, 1.3, 1.5});
        },
        [](const std::vector<OpbCurve> &a,
           const std::vector<OpbCurve> &b) {
            ASSERT_EQ(a.size(), b.size());
            for (size_t c = 0; c < a.size(); ++c) {
                EXPECT_EQ(a[c].bwTbs, b[c].bwTbs);
                ASSERT_EQ(a[c].points.size(), b[c].points.size());
                for (size_t p = 0; p < a[c].points.size(); ++p) {
                    EXPECT_EQ(a[c].points[p].opsPerByte,
                              b[c].points[p].opsPerByte);
                    EXPECT_EQ(a[c].points[p].normPerf,
                              b[c].points[p].normPerf);
                }
            }
        });
}

TEST(ParallelSweep, MissRateStudyMatchesSerial)
{
    MissRateStudy study(evaluator(), NodeConfig::bestMean());
    serialVsParallel(
        [&] { return study.run(); },
        [](const std::vector<MissRateSeries> &a,
           const std::vector<MissRateSeries> &b) {
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].app, b[i].app);
                ASSERT_EQ(a[i].points.size(), b[i].points.size());
                for (size_t p = 0; p < a[i].points.size(); ++p) {
                    EXPECT_EQ(a[i].points[p].normPerf,
                              b[i].points[p].normPerf);
                }
            }
        });
}

TEST(ParallelSweep, SweepGridOrderMatchesSerialEnumeration)
{
    // The flat-index decomposition must reproduce the historical
    // (cus, freq, bw) nesting order exactly.
    DseGrid g;
    g.cus = {192, 256};
    g.freqsGhz = {0.8, 1.0, 1.2};
    g.bwsTbs = {2.0, 4.0};
    DesignSpaceExplorer dse(evaluator(), g, 160.0);
    auto points = dse.sweep(PowerOptConfig::none());
    ASSERT_EQ(points.size(), 12u);
    size_t i = 0;
    for (int c : g.cus) {
        for (double f : g.freqsGhz) {
            for (double bw : g.bwsTbs) {
                EXPECT_EQ(points[i].cfg.cus, c) << "index " << i;
                EXPECT_EQ(points[i].cfg.freqGhz, f) << "index " << i;
                EXPECT_EQ(points[i].cfg.bwTbs, bw) << "index " << i;
                ++i;
            }
        }
    }
}

TEST(ParallelSweep, MetricsDumpDoesNotDependOnThreadCount)
{
    // threadpool.busy_us, a timing, is counted only while metrics are
    // enabled; every other row counts work and must not move.
    telemetry::disableMetrics();
    auto dump = [](int threads) {
        telemetry::reset();
        ThreadPool::setGlobalThreads(threads);
        DesignSpaceExplorer dse(evaluator(), DseGrid::paperGrid(), 160.0);
        const NodeConfig best = dse.findBestMean(PowerOptConfig::none());
        dse.tableII(best);
        ThermalStudy(evaluator()).peakDramC(best, App::LULESH);
        std::ostringstream os;
        telemetry::writeMetricsCsv(os);
        return os.str();
    };
    const std::string serial = dump(1);
    const std::string parallel = dump(4);
    ThreadPool::setGlobalThreads(0);
    EXPECT_NE(serial.find("thermal.solver_iterations_per_solve"),
              std::string::npos);
    EXPECT_EQ(serial, parallel);
}
