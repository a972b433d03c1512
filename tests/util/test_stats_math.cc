/**
 * @file
 * Unit tests for the numeric helpers, including property checks of the
 * smooth-minimum used by the roofline model.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "util/stats_math.hh"

using namespace ena;

TEST(StatsMath, Mean)
{
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
}

TEST(StatsMath, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({1.0, 100.0}), 10.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatsMathDeathTest, GeomeanRejectsNonPositive)
{
    EXPECT_EXIT(geomean({1.0, 0.0}), testing::ExitedWithCode(1),
                "positive");
}

TEST(StatsMath, Clamp)
{
    EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

// Property: smoothMin is bounded above by hard min and approaches it as
// the norm grows.
TEST(StatsMath, SmoothMinBoundedByHardMin)
{
    for (double a : {1.0, 3.0, 10.0}) {
        for (double b : {1.0, 5.0, 100.0}) {
            double s = smoothMin(a, b);
            EXPECT_LE(s, std::min(a, b));
            EXPECT_GT(s, 0.0);
        }
    }
}

TEST(StatsMath, SmoothMinApproachesHardMinWithLargeNorm)
{
    double s = smoothMin(3.0, 9.0, 64.0);
    EXPECT_NEAR(s, 3.0, 0.01);
}

TEST(StatsMath, SmoothMinSymmetric)
{
    EXPECT_DOUBLE_EQ(smoothMin(2.0, 7.0), smoothMin(7.0, 2.0));
}

TEST(StatsMath, SmoothMinEqualInputs)
{
    // p-norm of equal rates: a * 2^(-1/p).
    double s = smoothMin(4.0, 4.0, 6.0);
    EXPECT_NEAR(s, 4.0 * std::pow(2.0, -1.0 / 6.0), 1e-12);
}

TEST(StatsMathDeathTest, MeanRejectsEmpty)
{
    EXPECT_EXIT(mean({}), testing::ExitedWithCode(1), "empty");
}

TEST(StatsMathDeathTest, GeomeanRejectsEmpty)
{
    EXPECT_EXIT(geomean({}), testing::ExitedWithCode(1), "empty");
}

TEST(StatsMath, OneElementMeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({3.5}), 3.5);
    EXPECT_DOUBLE_EQ(geomean({3.5}), 3.5);
}

TEST(StatsMath, PercentileInterpolates)
{
    // Unsorted on purpose: percentile sorts a copy.
    std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 17.5);
    // Caller's vector is untouched (taken by value).
    EXPECT_DOUBLE_EQ(xs[0], 40.0);
}

TEST(StatsMath, PercentileSingleElement)
{
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 50.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
}

TEST(StatsMathDeathTest, PercentileRejectsEmptyAndBadP)
{
    EXPECT_EXIT(percentile({}, 50.0), testing::ExitedWithCode(1),
                "empty");
    EXPECT_EXIT(percentile({1.0}, -0.5), testing::ExitedWithCode(1),
                "0, 100");
    EXPECT_EXIT(percentile({1.0}, 100.5), testing::ExitedWithCode(1),
                "0, 100");
}
