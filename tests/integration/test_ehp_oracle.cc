/**
 * @file
 * Full-precision oracle of the cycle-level EHP: the Fig. 7 chiplet
 * study and the two-level memory check.
 *
 * The golden files print these studies' numbers rounded. Here every
 * double of each run is compared bit for bit, with the run's event
 * count, so a change to how the model is built or scheduled that keeps
 * its behaviour keeps every value below; one that moves a single event
 * does not. The values are hexadecimal float literals, exact by
 * construction. They were recorded from the model and are the same at
 * any ENA_THREADS.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/chiplet_study.hh"
#include "core/twolevel_study.hh"

using namespace ena;

namespace {

struct RunBits
{
    double runtimeUs;
    double remoteTrafficFrac;
    double l2HitRate;
    double meanHops;
    double meanNetLatencyNs;
    double hbmRowHitRate;
    std::uint64_t eventsProcessed;
};

void
expectRun(const ChipletRunResult &r, const RunBits &want)
{
    EXPECT_EQ(r.runtimeUs, want.runtimeUs);
    EXPECT_EQ(r.remoteTrafficFrac, want.remoteTrafficFrac);
    EXPECT_EQ(r.l2HitRate, want.l2HitRate);
    EXPECT_EQ(r.meanHops, want.meanHops);
    EXPECT_EQ(r.meanNetLatencyNs, want.meanNetLatencyNs);
    EXPECT_EQ(r.hbmRowHitRate, want.hbmRowHitRate);
    EXPECT_EQ(r.eventsProcessed, want.eventsProcessed);
}

struct PointBits
{
    double capacityFraction;
    double achievedMissRate;
    double runtimeUs;
    double normPerf;
};

void
expectPoint(const TwoLevelPoint &p, const PointBits &want)
{
    EXPECT_EQ(p.capacityFraction, want.capacityFraction);
    EXPECT_EQ(p.achievedMissRate, want.achievedMissRate);
    EXPECT_EQ(p.runtimeUs, want.runtimeUs);
    EXPECT_EQ(p.normPerf, want.normPerf);
}

/** The small machine of the chiplet study's integration tests. */
ChipletStudyParams
smallCoMD()
{
    ChipletStudyParams p = ChipletStudyParams::forApp(App::CoMD);
    p.cusPerChiplet = 4;
    p.wavefrontsPerCu = 4;
    p.memOpsPerWavefront = 150;
    p.aggregateBwGbs = 400.0;
    return p;
}

} // anonymous namespace

TEST(EhpOracle, Fig7RunsAreBitExact)
{
    // The six simulations bench_fig7_chiplet prints, chiplet then
    // monolithic for each app.
    const RunBits want[] = {
        {0x1.6b314db59578ap+4, 0x1.c043911d3433ap-1, 0x1.7c044d0e01c4ap-5,
         0x1.4639c0a37d69p+1, 0x1.43d4b5084dabbp+4, 0x1.c6043f8adf2a3p-14,
         1368817u},
        {0x1.3cfa15db3397ep+4, 0x1.c04373f901f89p-1, 0x1.7b9d2d79c0082p-5,
         0x1p+0, 0x1.845f429dc57d9p+1, 0x1.2816e41a628a3p-13, 1361381u},
        {0x1.aa81a5870da5ep+3, 0x1.915335cf99097p-1, 0x1.abdf5f983a573p-3,
         0x1.37a7b272e7266p+1, 0x1.febf9efff5a0ep+3, 0x1.2477217667921p-4,
         782818u},
        {0x1.9396cc5fbf834p+3, 0x1.915335cf99097p-1, 0x1.aac8e42f6ba79p-3,
         0x1p+0, 0x1.833379554c318p+1, 0x1.25837c6bd1762p-4, 771776u},
        {0x1.237177a7008a7p+5, 0x1.88ed7e621ff6cp-1, 0x1.aa7eb3a6c5674p-3,
         0x1.44f6268fa46dap+1, 0x1.2c8b2cc722423p+4, 0x1.1bc495686f857p-7,
         1788824u},
        {0x1.26d63baba7b91p+5, 0x1.88ed5733e6c81p-1, 0x1.aa7535f8290e1p-3,
         0x1p+0, 0x1.833c74bf7e721p+1, 0x1.1a58b299ca6afp-7, 1750977u},
    };
    std::vector<Fig7Row> rows =
        ChipletStudy().compareAll({App::XSBench, App::SNAP, App::CoMD});
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t a = 0; a < rows.size(); ++a) {
        SCOPED_TRACE(appName(rows[a].app));
        expectRun(rows[a].chiplet, want[2 * a]);
        expectRun(rows[a].monolithic, want[2 * a + 1]);
    }
}

TEST(EhpOracle, DetailedRouterRunIsBitExact)
{
    ChipletStudyParams p = smallCoMD();
    p.detailedNoc = true;
    expectRun(ChipletStudy().run(App::CoMD, p, false),
              {0x1.b6b8ed1bf7ad5p+3, 0x1.8cafc6fdbb8bdp-1,
               0x1.0633b5f3e0e25p-3, 0x1.2d95fba18dec2p+1,
               0x1.6e324b2d0e466p+3, 0x1.9139d673dd89ep-7, 612447u});
}

TEST(EhpOracle, RunsWithoutCpuTrafficAreBitExact)
{
    ChipletStudyParams p = smallCoMD();
    p.cpuTraffic = false;
    expectRun(ChipletStudy().run(App::CoMD, p, false),
              {0x1.b72706d506573p+3, 0x1.8cafc6fdbb8bdp-1,
               0x1.0633b5f3e0e25p-3, 0x1.46df403e6ea66p+1,
               0x1.d4878c9dc78f7p+3, 0x1.0f3955307aa7dp-6, 169549u});
    expectRun(ChipletStudy().run(App::CoMD, p, true),
              {0x1.b707f23cc8de3p+3, 0x1.8cafc6fdbb8bdp-1,
               0x1.0633b5f3e0e25p-3, 0x1p+0, 0x1.832fe59df4069p+1,
               0x1.0e5c351f34267p-6, 168060u});
}

TEST(EhpOracle, TwoLevelSweepIsBitExact)
{
    // bench_fig8_missrate's cycle-level cross-check.
    const PointBits want[] = {
        {0x1p+0, 0x0p+0, 0x1.da31a4bdba0a5p+3, 0x1p+0},
        {0x1p-1, 0x1.871b95d8c6c68p-3, 0x1.06b2fec56d5dp+4,
         0x1.ce19ef37fa876p-1},
        {0x1p-2, 0x1.1946184eac2e4p-1, 0x1.aba2ec28b2a6bp+4,
         0x1.1bdf040b0f355p-1},
        {0x1p-3, 0x1.86053c345a0b8p-1, 0x1.0af5afaf85943p+5,
         0x1.c6b9f8f7de889p-2},
    };
    std::vector<TwoLevelPoint> points = TwoLevelStudy().sweep(
        App::XSBench, TwoLevelParams{}, {1.0, 0.5, 0.25, 0.125});
    ASSERT_EQ(points.size(), 4u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(i);
        expectPoint(points[i], want[i]);
    }
}

TEST(EhpOracle, TwoLevelModesAreBitExact)
{
    // memory_study's cycle-level table (2 CUs per chiplet, 25% of the
    // footprint in package), for LULESH and for CoMD.
    struct Case
    {
        App app;
        MemMode mode;
        PointBits want;
    };
    const Case cases[] = {
        {App::LULESH, MemMode::SoftwareManaged,
         {0x1p-2, 0x1.8ee7fd29ee462p-2, 0x1.e8a261bf37b8dp+3, 0x0p+0}},
        {App::LULESH, MemMode::HwCache,
         {0x1p-2, 0x1.956265a6fb53ap-2, 0x1.b65d4e8fb00bdp+3, 0x0p+0}},
        {App::LULESH, MemMode::StaticInterleave,
         {0x1p-2, 0x1.9c5cb14353e4dp-1, 0x1.19abb01c92ddcp+4, 0x0p+0}},
        {App::CoMD, MemMode::SoftwareManaged,
         {0x1p-2, 0x0p+0, 0x1.6b3b59ddc1e79p+5, 0x0p+0}},
        {App::CoMD, MemMode::HwCache,
         {0x1p-2, 0x1.a71f950138f44p-3, 0x1.6b3dc054ef45ap+5, 0x0p+0}},
        {App::CoMD, MemMode::StaticInterleave,
         {0x1p-2, 0x1.9d050b325505ep-1, 0x1.6b94141e9af5cp+5, 0x0p+0}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(appName(c.app) + " mode " +
                     std::to_string(static_cast<int>(c.mode)));
        TwoLevelParams p;
        p.cusPerChiplet = 2;
        p.mode = c.mode;
        expectPoint(TwoLevelStudy().run(c.app, p, 0.25), c.want);
    }
}
