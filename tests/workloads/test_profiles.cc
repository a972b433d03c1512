/**
 * @file
 * Tests of the Table I application catalog: completeness, categories,
 * and parameter sanity for every kernel profile.
 */

#include <gtest/gtest.h>

#include "workloads/kernel_profile.hh"

using namespace ena;

TEST(Profiles, CatalogHasEightApps)
{
    EXPECT_EQ(allApps().size(), 8u);
    EXPECT_EQ(allProfiles().size(), 8u);
}

TEST(Profiles, NamesRoundTrip)
{
    for (App app : allApps())
        EXPECT_EQ(appFromName(appName(app)), app);
}

TEST(Profiles, NameLookupIsCaseInsensitive)
{
    EXPECT_EQ(appFromName("lulesh"), App::LULESH);
    EXPECT_EQ(appFromName("XSBENCH"), App::XSBench);
    EXPECT_EQ(appFromName("comd_lj"), App::CoMDLJ);
    EXPECT_EQ(appFromName("CoMD-LJ"), App::CoMDLJ);
    EXPECT_EQ(appFromName("COMD_LJ"), App::CoMDLJ);
    EXPECT_EQ(appFromName("CoMd_Lj"), App::CoMDLJ);
    EXPECT_EQ(appFromName("comdlj"), App::CoMDLJ);
    EXPECT_EQ(appFromName("COMDLJ"), App::CoMDLJ);
    EXPECT_EQ(appFromName("comd-lj"), App::CoMDLJ);
    EXPECT_EQ(appFromName("maxflops"), App::MaxFlops);
    EXPECT_EQ(appFromName("CoMD"), App::CoMD);
    EXPECT_EQ(appFromName("hpgmg"), App::HPGMG);
    EXPECT_EQ(appFromName("MINIAMR"), App::MiniAMR);
    EXPECT_EQ(appFromName("Snap"), App::SNAP);
    // A prefix, an extension or an empty name is no match.
    EXPECT_FALSE(tryAppFromName("comd_l").ok());
    EXPECT_FALSE(tryAppFromName("luleshx").ok());
    EXPECT_FALSE(tryAppFromName("").ok());
    EXPECT_EQ(tryAppFromName("Comd LJ").status().message(),
              "unknown application 'Comd LJ'");
}

TEST(ProfilesDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(appFromName("hpl"), testing::ExitedWithCode(1),
                "unknown application");
}

TEST(Profiles, PaperCategories)
{
    EXPECT_EQ(profileFor(App::MaxFlops).category,
              AppCategory::ComputeIntensive);
    EXPECT_EQ(profileFor(App::CoMD).category, AppCategory::Balanced);
    EXPECT_EQ(profileFor(App::CoMDLJ).category, AppCategory::Balanced);
    EXPECT_EQ(profileFor(App::HPGMG).category, AppCategory::Balanced);
    EXPECT_EQ(profileFor(App::LULESH).category,
              AppCategory::MemoryIntensive);
    EXPECT_EQ(profileFor(App::MiniAMR).category,
              AppCategory::MemoryIntensive);
    EXPECT_EQ(profileFor(App::XSBench).category,
              AppCategory::MemoryIntensive);
    EXPECT_EQ(profileFor(App::SNAP).category,
              AppCategory::MemoryIntensive);
}

class ProfileParamTest : public testing::TestWithParam<App>
{
};

TEST_P(ProfileParamTest, ParametersInPhysicalRanges)
{
    const KernelProfile &p = profileFor(GetParam());
    EXPECT_GT(p.arithmeticIntensity, 0.0);
    EXPECT_GT(p.computeEfficiency, 0.0);
    EXPECT_LE(p.computeEfficiency, 1.0);
    EXPECT_GT(p.cuScalingExp, 0.0);
    EXPECT_LE(p.cuScalingExp, 1.2);
    EXPECT_GT(p.freqScalingExp, 0.0);
    EXPECT_LE(p.freqScalingExp, 1.5);
    EXPECT_GE(p.contentionAlpha, 0.0);
    EXPECT_GT(p.contentionKnee, 0.0);
    EXPECT_GE(p.latencySensitivity, 0.0);
    EXPECT_LE(p.latencySensitivity, 1.0);
    EXPECT_GT(p.memLevelParallelism, 0.0);
    EXPECT_GT(p.maxBandwidthTbs, 0.0);
    EXPECT_GE(p.writeFraction, 0.0);
    EXPECT_LE(p.writeFraction, 1.0);
    EXPECT_GE(p.compressRatio, 1.0);
    EXPECT_GT(p.cuIdleActivity, 0.0);
    EXPECT_LT(p.cuIdleActivity, 1.0);
    EXPECT_GE(p.spatialLocality, 0.0);
    EXPECT_LE(p.spatialLocality, 1.0);
    EXPECT_GE(p.computePerMemByte, 0.0);
    EXPECT_GE(p.sharedFraction, 0.0);
    EXPECT_LE(p.sharedFraction, 1.0);
    EXPECT_FALSE(p.description.empty());
}

TEST_P(ProfileParamTest, ExtTrafficFractionInPaperRange)
{
    // Paper Section V-B: 46% to 89% of traffic goes off-package.
    const KernelProfile &p = profileFor(GetParam());
    EXPECT_GE(p.extTrafficFraction, 0.46);
    EXPECT_LE(p.extTrafficFraction, 0.89);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ProfileParamTest,
                         testing::ValuesIn(allApps()),
                         [](const auto &info) {
                             std::string n = appName(info.param);
                             for (char &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

TEST(Profiles, MaxFlopsIsComputeExtreme)
{
    const KernelProfile &mf = profileFor(App::MaxFlops);
    for (App app : allApps()) {
        if (app == App::MaxFlops)
            continue;
        EXPECT_GT(mf.arithmeticIntensity,
                  profileFor(app).arithmeticIntensity);
    }
    EXPECT_EQ(mf.contentionAlpha, 0.0);
}

TEST(Profiles, MemoryIntensiveHaveLowIntensity)
{
    for (App app : allApps()) {
        const KernelProfile &p = profileFor(app);
        if (p.category == AppCategory::MemoryIntensive) {
            EXPECT_LT(p.arithmeticIntensity, 2.0);
        }
        if (p.category == AppCategory::Balanced) {
            EXPECT_GT(p.arithmeticIntensity, 2.0);
        }
    }
}

TEST(Profiles, LuleshIsMostLatencySensitive)
{
    double lulesh = profileFor(App::LULESH).latencySensitivity;
    for (App app : allApps()) {
        if (app != App::LULESH) {
            EXPECT_GT(lulesh, profileFor(app).latencySensitivity);
        }
    }
}

TEST(Profiles, LuleshIsMostCompressible)
{
    // Paper Fig. 12 discussion: LULESH benefits the most from DRAM
    // traffic compression.
    double lulesh = profileFor(App::LULESH).compressRatio;
    for (App app : allApps()) {
        if (app != App::LULESH) {
            EXPECT_GE(lulesh, profileFor(app).compressRatio);
        }
    }
}

TEST(Profiles, ScalingTaxonomySpansBothCorners)
{
    // Table II: CoMD trades CUs for frequency (sigma < phi), SNAP the
    // opposite (phi << sigma).
    const KernelProfile &comd = profileFor(App::CoMD);
    EXPECT_LT(comd.cuScalingExp, comd.freqScalingExp);
    const KernelProfile &snap = profileFor(App::SNAP);
    EXPECT_GT(snap.cuScalingExp, snap.freqScalingExp);
}
