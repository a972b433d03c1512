/**
 * @file
 * Tests for the Config <-> NodeConfig bindings, and for the bytes of
 * NodeConfig::label().
 */

#include <cfloat>
#include <vector>

#include <gtest/gtest.h>

#include "common/node_config_io.hh"
#include "core/dse.hh"
#include "util/rng.hh"

using namespace ena;

TEST(NodeConfig, LabelIsPrintfsFormat)
{
    // label() promises printf's "%dcu@%.2fGHz/%.1fTBps" bytes: over the
    // paper grid, decimal ties (0.125 is exactly halfway at two
    // decimals; 0.925 and 2.675 only look halfway, being inexact in
    // binary), negative zero, extreme values and 2,000 seeded draws.
    std::vector<double> values = {0.125, 0.925, 2.675, -0.0, 0.005,
                                  0.05,  0.15,  2.25,  1e20, -1e300,
                                  DBL_MAX, -DBL_MAX, DBL_MIN};
    Rng rng(7);
    for (int i = 0; i < 2000; ++i)
        values.push_back(rng.uniform() * 10.0);
    const DseGrid grid = DseGrid::paperGrid();
    values.insert(values.end(), grid.freqsGhz.begin(),
                  grid.freqsGhz.end());
    values.insert(values.end(), grid.bwsTbs.begin(), grid.bwsTbs.end());
    std::vector<int> cus = grid.cus;
    cus.insert(cus.end(), {0, -1, 2147483647, -2147483647 - 1});

    for (int c : cus) {
        for (double v : values) {
            NodeConfig cfg;
            cfg.cus = c;
            cfg.freqGhz = v;
            cfg.bwTbs = -v;
            ASSERT_EQ(cfg.label(),
                      strformat("%dcu@%.2fGHz/%.1fTBps", c, v, -v))
                << v;
        }
    }
}

TEST(NodeConfigIo, DefaultsWhenEmpty)
{
    NodeConfig n = nodeConfigFromConfig(Config{});
    EXPECT_EQ(n.cus, 320);
    EXPECT_DOUBLE_EQ(n.freqGhz, 1.0);
    EXPECT_DOUBLE_EQ(n.bwTbs, 3.0);
    EXPECT_DOUBLE_EQ(n.ext.dramGb, 768.0);
    EXPECT_FALSE(n.opts.any());
}

TEST(NodeConfigIo, ParsesAllSections)
{
    Config cfg = Config::fromString(
        "ehp.cus = 256\n"
        "ehp.freq_ghz = 1.2\n"
        "ehp.bw_tbs = 4\n"
        "extmem.dram_gb = 384\n"
        "extmem.nvm_gb = 384\n"
        "opts.ntc = true\n"
        "opts.compression = true\n");
    NodeConfig n = nodeConfigFromConfig(cfg);
    EXPECT_EQ(n.cus, 256);
    EXPECT_DOUBLE_EQ(n.freqGhz, 1.2);
    EXPECT_DOUBLE_EQ(n.bwTbs, 4.0);
    EXPECT_DOUBLE_EQ(n.ext.nvmGb, 384.0);
    EXPECT_TRUE(n.opts.ntc);
    EXPECT_TRUE(n.opts.compression);
    EXPECT_FALSE(n.opts.asyncCu);
}

TEST(NodeConfigIo, RoundTrip)
{
    NodeConfig n;
    n.cus = 224;
    n.freqGhz = 0.925;
    n.bwTbs = 5.0;
    n.ext = ExtMemConfig::hybrid();
    n.opts = PowerOptConfig::all();
    NodeConfig back = nodeConfigFromConfig(nodeConfigToConfig(n));
    EXPECT_EQ(back.cus, n.cus);
    EXPECT_DOUBLE_EQ(back.freqGhz, n.freqGhz);
    EXPECT_DOUBLE_EQ(back.bwTbs, n.bwTbs);
    EXPECT_DOUBLE_EQ(back.ext.nvmGb, n.ext.nvmGb);
    EXPECT_TRUE(back.opts.ntc);
    EXPECT_TRUE(back.opts.lpLinks);
}

TEST(NodeConfigIo, TryLoadReportsUnknownKeyWithOrigin)
{
    Config cfg = unwrapOrFatal(
        Config::tryFromString("ehp.cuz = 320\n", "node.ini"));
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(n.status().message().find("ehp.cuz"), std::string::npos);
    EXPECT_NE(n.status().message().find("node.ini:1"),
              std::string::npos);
}

TEST(NodeConfigIo, TryLoadReportsMalformedValueWithOrigin)
{
    Config cfg = unwrapOrFatal(Config::tryFromString(
        "ehp.cus = 256\nehp.freq_ghz = fast\n", "node.ini"));
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::ParseError);
    EXPECT_NE(n.status().message().find("ehp.freq_ghz"),
              std::string::npos);
    EXPECT_NE(n.status().message().find("node.ini:2"),
              std::string::npos);
    EXPECT_NE(n.status().message().find("'fast'"), std::string::npos);
}

TEST(NodeConfigIo, TryLoadReportsRangeViolationsAsStatus)
{
    Config cfg = Config::fromString("ehp.cus = 0\n");
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::OutOfRange);
    EXPECT_NE(n.status().message().find("bad CU count"),
              std::string::npos);
}

TEST(NodeConfigIoDeathTest, UnknownKeyIsFatal)
{
    Config cfg = Config::fromString("ehp.cuz = 320\n");
    EXPECT_EXIT(nodeConfigFromConfig(cfg), testing::ExitedWithCode(1),
                "unknown node-config key");
}

TEST(NodeConfigIoDeathTest, InvalidValueIsFatal)
{
    Config cfg = Config::fromString("ehp.cus = 0\n");
    EXPECT_EXIT(nodeConfigFromConfig(cfg), testing::ExitedWithCode(1),
                "bad CU count");
}
