/**
 * @file
 * Unit tests for PowerMap.
 */

#include <gtest/gtest.h>

#include "thermal/power_map.hh"

using namespace ena;

TEST(PowerMap, DefaultIsEmpty1x1)
{
    PowerMap m;
    EXPECT_EQ(m.nx(), 1u);
    EXPECT_EQ(m.ny(), 1u);
    EXPECT_DOUBLE_EQ(m.totalWatts(), 0.0);
}

TEST(PowerMap, UniformConservesTotal)
{
    PowerMap m(8, 8);
    m.addUniform(32.0);
    EXPECT_NEAR(m.totalWatts(), 32.0, 1e-9);
    EXPECT_NEAR(m.at(3, 4), 0.5, 1e-12);
}

TEST(PowerMap, RectConservesTotal)
{
    PowerMap m(16, 16);
    m.addRect(2, 3, 4, 2, 8.0);
    EXPECT_NEAR(m.totalWatts(), 8.0, 1e-9);
    EXPECT_NEAR(m.at(2, 3), 1.0, 1e-12);
    EXPECT_NEAR(m.at(5, 4), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(m.at(6, 3), 0.0);
    EXPECT_DOUBLE_EQ(m.at(2, 5), 0.0);
}

TEST(PowerMap, LayersAccumulate)
{
    PowerMap m(4, 4);
    m.addUniform(16.0);
    m.addRect(0, 0, 2, 2, 4.0);
    EXPECT_NEAR(m.totalWatts(), 20.0, 1e-9);
    EXPECT_NEAR(m.at(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(m.at(3, 3), 1.0, 1e-12);
}

TEST(PowerMap, SetAndAdd)
{
    PowerMap m(2, 2);
    m.set(1, 1, 3.0);
    m.add(1, 1, 1.5);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 4.5);
}

TEST(PowerMapDeathTest, OutOfRangePanics)
{
    PowerMap m(4, 4);
    EXPECT_DEATH(m.at(4, 0), "out of");
    EXPECT_DEATH(m.addRect(2, 2, 3, 1, 1.0), "exceeds map");
    EXPECT_DEATH(m.addRect(0, 0, 0, 1, 1.0), "empty rect");
}
