/**
 * @file
 * Tests of the steady-state thermal solver against physics invariants
 * and closed-form checks.
 */

#include <gtest/gtest.h>

#include "thermal/grid.hh"

using namespace ena;

namespace {

Layer
makeLayer(const std::string &name, size_t n, double watts,
          double thickness = 200e-6, double k = 120.0)
{
    Layer l;
    l.name = name;
    l.thicknessM = thickness;
    l.conductivity = k;
    l.power = PowerMap(n, n);
    if (watts > 0.0)
        l.power.addUniform(watts);
    return l;
}

} // anonymous namespace

TEST(ThermalGrid, NoPowerMeansAmbientEverywhere)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 0.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_NEAR(grid.peak("die"), p.ambientC, 1e-3);
}

TEST(ThermalGrid, UniformPowerMatchesLumpedModel)
{
    // One uniformly-powered layer with only the sink path: steady state
    // must satisfy T = ambient + P * R_sink exactly.
    ThermalGridParams p;
    p.sinkResistance = 0.5;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 20.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_NEAR(grid.peak("die"), p.ambientC + 20.0 * 0.5, 0.05);
}

TEST(ThermalGrid, HotterWithMorePower)
{
    ThermalGridParams p;
    for (double watts : {5.0, 10.0, 20.0}) {
        std::vector<Layer> layers;
        layers.push_back(makeLayer("die", 8, watts));
        ThermalGrid grid(p, std::move(layers));
        grid.solve();
        EXPECT_NEAR(grid.peak("die"),
                    p.ambientC + watts * p.sinkResistance, 0.1);
    }
}

TEST(ThermalGrid, LowerLayersRunHotter)
{
    // Heat source at the bottom of a stack must be hotter than layers
    // nearer the sink.
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("bottom", 8, 15.0));
    layers.push_back(makeLayer("mid", 8, 0.0));
    layers.push_back(makeLayer("top", 8, 0.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_GT(grid.peak("bottom"), grid.peak("mid"));
    EXPECT_GT(grid.peak("mid"), grid.peak("top"));
    EXPECT_GT(grid.peak("top"), p.ambientC);
}

TEST(ThermalGrid, HotSpotAboveConcentratedSource)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    Layer die = makeLayer("die", 16, 0.0);
    die.power.addRect(2, 2, 2, 2, 10.0);   // corner hot spot
    layers.push_back(die);
    layers.push_back(makeLayer("cap", 16, 0.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    const LayerTemps &cap = grid.temperatures()[1];
    // Cell above the source beats the far corner.
    EXPECT_GT(cap.at(3, 3), cap.at(14, 14) + 1.0);
}

TEST(ThermalGrid, InsulatingLayerRaisesSourceTemperature)
{
    auto peak_with_tim_k = [](double k_tim) {
        ThermalGridParams p;
        std::vector<Layer> layers;
        layers.push_back(makeLayer("die", 8, 15.0));
        layers.push_back(makeLayer("tim", 8, 0.0, 50e-6, k_tim));
        ThermalGrid grid(p, std::move(layers));
        grid.solve();
        return grid.peak("die");
    };
    EXPECT_GT(peak_with_tim_k(1.0), peak_with_tim_k(100.0) + 0.5);
}

TEST(ThermalGrid, LateralSpreadingSmoothsPeak)
{
    auto peak_with_conductivity = [](double k) {
        ThermalGridParams p;
        std::vector<Layer> layers;
        Layer die = makeLayer("die", 16, 0.0, 400e-6, k);
        die.power.addRect(6, 6, 4, 4, 15.0);
        layers.push_back(die);
        ThermalGrid grid(p, std::move(layers));
        grid.solve();
        return grid.peak("die");
    };
    // Higher lateral conductivity spreads the hot spot.
    EXPECT_GT(peak_with_conductivity(20.0),
              peak_with_conductivity(400.0) + 0.5);
}

TEST(ThermalGrid, AsciiHeatMapRendersAllRows)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 10.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    std::string art = grid.asciiHeatMap("die");
    int newlines = 0;
    for (char c : art) {
        if (c == '\n')
            ++newlines;
    }
    EXPECT_EQ(newlines, 9);   // 8 rows + range line
    EXPECT_NE(art.find("range"), std::string::npos);
}

TEST(ThermalGrid, SolverConvergesWithinBudget)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    for (int i = 0; i < 6; ++i) {
        std::string name = "l";
        name += std::to_string(i);
        layers.push_back(makeLayer(name, 16, 3.0));
    }
    ThermalGrid grid(p, std::move(layers));
    int iters = grid.solve();
    EXPECT_LT(iters, p.maxIterations);
}

TEST(ThermalGridDeathTest, MismatchedLayersAreFatal)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("a", 8, 1.0));
    layers.push_back(makeLayer("b", 16, 1.0));
    EXPECT_EXIT(ThermalGrid(p, std::move(layers)),
                testing::ExitedWithCode(1), "grid mismatch");
}

TEST(ThermalGridDeathTest, UnknownLayerQueryIsFatal)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 1.0));
    ThermalGrid grid(p, std::move(layers));
    grid.solve();
    EXPECT_EXIT(grid.peak("ghost"), testing::ExitedWithCode(1),
                "no thermal layer");
}

TEST(ThermalGridDeathTest, QueryBeforeSolvePanics)
{
    ThermalGridParams p;
    std::vector<Layer> layers;
    layers.push_back(makeLayer("die", 8, 1.0));
    ThermalGrid grid(p, std::move(layers));
    EXPECT_DEATH(grid.temperatures(), "before solve");
}
