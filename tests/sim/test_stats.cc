/**
 * @file
 * Unit tests for the statistics package.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace ena;

TEST(Stats, ScalarAccumulates)
{
    StatRegistry reg;
    StatScalar s(reg, "test.count", "a counter");
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(10.0);
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
}

TEST(Stats, RegistryLookupAndValue)
{
    StatRegistry reg;
    StatScalar s(reg, "a.b", "x");
    s += 4.0;
    EXPECT_EQ(reg.find("a.b"), &s);
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_DOUBLE_EQ(reg.value("a.b"), 4.0);
}

TEST(Stats, StatsDeregisterOnDestruction)
{
    StatRegistry reg;
    {
        StatScalar s(reg, "temp", "x");
        EXPECT_EQ(reg.size(), 1u);
    }
    EXPECT_EQ(reg.size(), 0u);
    // Name is reusable afterwards.
    StatScalar again(reg, "temp", "y");
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatsDeathTest, DuplicateNameIsFatal)
{
    StatRegistry reg;
    StatScalar a(reg, "dup", "x");
    EXPECT_EXIT({ StatScalar b(reg, "dup", "y"); },
                testing::ExitedWithCode(1), "duplicate stat");
}

TEST(Stats, DistributionBuckets)
{
    StatRegistry reg;
    StatDistribution d(reg, "lat", "latency", 0.0, 100.0, 10);
    d.sample(5.0);    // bucket 0
    d.sample(15.0);   // bucket 1
    d.sample(15.0);
    d.sample(99.9);   // bucket 9
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[1], 2u);
    EXPECT_EQ(d.buckets()[9], 1u);
    EXPECT_NEAR(d.mean(), (5.0 + 15.0 + 15.0 + 99.9) / 4.0, 1e-9);
    EXPECT_DOUBLE_EQ(d.minSample(), 5.0);
    EXPECT_DOUBLE_EQ(d.maxSample(), 99.9);
}

TEST(Stats, DistributionOverUnderflow)
{
    StatRegistry reg;
    StatDistribution d(reg, "d", "x", 0.0, 10.0, 5);
    d.sample(-1.0);
    d.sample(10.0);   // hi is exclusive
    d.sample(100.0);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 2u);
}

TEST(Stats, DistributionWeightedSamples)
{
    StatRegistry reg;
    StatDistribution d(reg, "d", "x", 0.0, 10.0, 5);
    d.sample(5.0, 10);
    EXPECT_EQ(d.samples(), 10u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(Stats, DumpContainsAllStats)
{
    StatRegistry reg;
    StatScalar a(reg, "z.last", "last stat");
    StatScalar b(reg, "a.first", "first stat");
    a += 1;
    b += 2;
    std::ostringstream os;
    reg.dump(os);
    std::string out = os.str();
    // Sorted order: a.first before z.last.
    EXPECT_LT(out.find("a.first"), out.find("z.last"));
    EXPECT_NE(out.find("# first stat"), std::string::npos);
}

TEST(Stats, DistributionIgnoresZeroCountSamples)
{
    // Regression: sample(v, 0) must contribute nothing — before the
    // fix it poisoned min/max (and the overflow bucket) with a value
    // no real sample ever took.
    StatRegistry reg;
    StatDistribution d(reg, "d", "x", 0.0, 100.0, 10);
    d.sample(5000.0, 0);
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_EQ(d.overflows(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);

    d.sample(5.0, 2);
    d.sample(-3.0, 0); // still ignored after real samples exist
    EXPECT_EQ(d.samples(), 2u);
    EXPECT_DOUBLE_EQ(d.minSample(), 5.0);
    EXPECT_DOUBLE_EQ(d.maxSample(), 5.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(StatsDeathTest, ValueOfMissingStatIsFatal)
{
    StatRegistry reg;
    EXPECT_EXIT(reg.value("ghost"), testing::ExitedWithCode(1),
                "no stat named");
}
