/**
 * @file
 * Tests for the Config <-> NodeConfig bindings, and for the bytes of
 * NodeConfig::label().
 */

#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_config_io.hh"
#include "common/node_config_io.hh"
#include "core/dse.hh"
#include "taskgraph/task_dag_io.hh"
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
    NodeConfig n = *tryNodeConfigFromConfig(Config{});
    EXPECT_EQ(n.cus, 320);
    EXPECT_DOUBLE_EQ(n.freqGhz, 1.0);
    EXPECT_DOUBLE_EQ(n.bwTbs, 3.0);
    EXPECT_DOUBLE_EQ(n.ext.dramGb, 768.0);
    EXPECT_FALSE(n.opts.any());
}

TEST(NodeConfigIo, ParsesAllSections)
{
    Config cfg = *Config::tryFromString(
        "ehp.cus = 256\n"
        "ehp.freq_ghz = 1.2\n"
        "ehp.bw_tbs = 4\n"
        "extmem.dram_gb = 384\n"
        "extmem.nvm_gb = 384\n"
        "opts.ntc = true\n"
        "opts.compression = true\n");
    NodeConfig n = *tryNodeConfigFromConfig(cfg);
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
    // Every field off its default, so a key missing from the field
    // list, or bound to the wrong member, shows up here.
    NodeConfig n;
    n.cus = 224;
    n.freqGhz = 0.925;
    n.bwTbs = 5.0;
    n.gpuChiplets = 4;
    n.cpuChiplets = 6;
    n.coresPerCpuChiplet = 2;
    n.inPackageGb = 128.0;
    n.ext.dramGb = 384.0;
    n.ext.nvmGb = 384.0;
    n.ext.dramModuleGb = 32.0;
    n.ext.nvmModuleGb = 512.0;
    n.ext.interfaces = 4;
    n.ext.interfaceGbs = 50.0;
    n.opts = PowerOptConfig::all();

    // ServerClient and ena-client send these bytes as a request's
    // config text.
    const Config text = nodeConfigToConfig(n);
    EXPECT_EQ(text.toString(),
              "ehp.bw_tbs = 5\n"
              "ehp.cores_per_cpu_chiplet = 2\n"
              "ehp.cpu_chiplets = 6\n"
              "ehp.cus = 224\n"
              "ehp.freq_ghz = 0.925\n"
              "ehp.gpu_chiplets = 4\n"
              "ehp.in_package_gb = 128\n"
              "extmem.dram_gb = 384\n"
              "extmem.dram_module_gb = 32\n"
              "extmem.interface_gbs = 50\n"
              "extmem.interfaces = 4\n"
              "extmem.nvm_gb = 384\n"
              "extmem.nvm_module_gb = 512\n"
              "opts.async_cu = true\n"
              "opts.async_router = true\n"
              "opts.compression = true\n"
              "opts.lp_links = true\n"
              "opts.ntc = true\n");

    auto back = tryNodeConfigFromConfig(text);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->cus, n.cus);
    EXPECT_EQ(back->freqGhz, n.freqGhz);
    EXPECT_EQ(back->bwTbs, n.bwTbs);
    EXPECT_EQ(back->gpuChiplets, n.gpuChiplets);
    EXPECT_EQ(back->cpuChiplets, n.cpuChiplets);
    EXPECT_EQ(back->coresPerCpuChiplet, n.coresPerCpuChiplet);
    EXPECT_EQ(back->inPackageGb, n.inPackageGb);
    EXPECT_EQ(back->ext.dramGb, n.ext.dramGb);
    EXPECT_EQ(back->ext.nvmGb, n.ext.nvmGb);
    EXPECT_EQ(back->ext.dramModuleGb, n.ext.dramModuleGb);
    EXPECT_EQ(back->ext.nvmModuleGb, n.ext.nvmModuleGb);
    EXPECT_EQ(back->ext.interfaces, n.ext.interfaces);
    EXPECT_EQ(back->ext.interfaceGbs, n.ext.interfaceGbs);
    EXPECT_EQ(powerOptBits(back->opts), powerOptBits(n.opts));
}

TEST(NodeConfigIo, IntegerKeysOutsideIntAreOutOfRange)
{
    // 4294967616 is 2^32 + 320: narrowed to an int it would read as a
    // valid 320-CU node. Each struct's int reader must refuse it.
    Config cfg = *Config::tryFromString("ehp.cus = 4294967616\n"
                                        "cluster.nodes = 4294967300\n"
                                        "taskgraph.size = 4294967297\n"
                                        "taskgraph.seed = 4294967297\n",
                                        "big.conf");
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(n.status().message(), "config key 'ehp.cus' (big.conf:1): "
                                    "4294967616 does not fit in an int");
    auto c = tryClusterConfigFromConfig(cfg);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(c.status().message(),
              "config key 'cluster.nodes' (big.conf:2): "
              "4294967300 does not fit in an int");
    auto t = tryTaskGraphSpecFromConfig(cfg);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(t.status().message(),
              "config key 'taskgraph.size' (big.conf:3): "
              "4294967297 does not fit in an int");

    // Below INT_MIN is refused too; int's own bounds load, and the
    // 64-bit seed takes values past int.
    cfg = *Config::tryFromString("ehp.gpu_chiplets = -2147483649\n");
    EXPECT_EQ(tryNodeConfigFromConfig(cfg).status().code(),
              ErrorCode::OutOfRange);
    cfg = *Config::tryFromString("taskgraph.size = 2147483647\n");
    EXPECT_EQ(tryTaskGraphSpecFromConfig(cfg)->size, 2147483647);
    cfg = *Config::tryFromString("taskgraph.seed = 4294967297\n");
    EXPECT_EQ(tryTaskGraphSpecFromConfig(cfg)->seed, 4294967297u);
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
    Config cfg = *Config::tryFromString("ehp.cus = 0\n");
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::OutOfRange);
    EXPECT_NE(n.status().message().find("bad CU count"),
              std::string::npos);
}

TEST(NodeConfig, SizesAreBoundedAndNaNFails)
{
    // Whether the default node validates with one field set to a value.
    auto validWith = [](auto field, auto value) {
        NodeConfig n;
        field(n) = value;
        return n.tryValidate().ok();
    };
    auto inPackage = [](NodeConfig &n) -> double & { return n.inPackageGb; };
    auto dram = [](NodeConfig &n) -> double & { return n.ext.dramGb; };
    auto nvm = [](NodeConfig &n) -> double & { return n.ext.nvmGb; };
    auto dramModule = [](NodeConfig &n) -> double & {
        return n.ext.dramModuleGb;
    };
    auto nvmModule = [](NodeConfig &n) -> double & {
        return n.ext.nvmModuleGb;
    };
    auto ifaceGbs = [](NodeConfig &n) -> double & {
        return n.ext.interfaceGbs;
    };
    auto ifaces = [](NodeConfig &n) -> int & { return n.ext.interfaces; };
    auto cpus = [](NodeConfig &n) -> int & { return n.cpuChiplets; };
    auto cores = [](NodeConfig &n) -> int & {
        return n.coresPerCpuChiplet;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // The edges of each range are valid.
    EXPECT_TRUE(validWith(inPackage, 1e6));
    EXPECT_TRUE(validWith(dram, 0.0));
    EXPECT_TRUE(validWith(nvm, 1e6));
    EXPECT_TRUE(validWith(dramModule, 1.0));
    EXPECT_TRUE(validWith(nvmModule, 1e6));
    EXPECT_TRUE(validWith(ifaces, 1));
    EXPECT_TRUE(validWith(cpus, 4096));
    EXPECT_TRUE(validWith(cores, 4096));

    // Past them, and NaN, are not.
    for (double bad : {0.0, -1.0, 1.000001e6, HUGE_VAL, nan}) {
        EXPECT_FALSE(validWith(inPackage, bad)) << bad;
        EXPECT_FALSE(validWith(dramModule, bad)) << bad;
        EXPECT_FALSE(validWith(nvmModule, bad)) << bad;
    }
    for (double bad : {-5.0, 1.000001e6, HUGE_VAL, nan}) {
        EXPECT_FALSE(validWith(dram, bad)) << bad;
        EXPECT_FALSE(validWith(nvm, bad)) << bad;
    }
    for (double bad : {0.0, -1.0, HUGE_VAL, nan})
        EXPECT_FALSE(validWith(ifaceGbs, bad)) << bad;
    EXPECT_FALSE(validWith(dramModule, 0.5));
    EXPECT_FALSE(validWith(ifaces, 0));
    EXPECT_FALSE(validWith(cpus, 4097));
    EXPECT_FALSE(validWith(cores, 0));
    EXPECT_FALSE(validWith(cores, 4097));
}

// The fatal flavor is gone; CLIs unwrap these errors at their own
// boundary. The tests keep their names and pin the Status instead.

TEST(NodeConfigIoDeathTest, UnknownKeyIsFatal)
{
    Config cfg = *Config::tryFromString("ehp.cuz = 320\n", "n.ini");
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(n.status().message(),
              "unknown node-config key 'ehp.cuz' (n.ini:1)");
}

TEST(NodeConfigIoDeathTest, InvalidValueIsFatal)
{
    Config cfg = *Config::tryFromString("ehp.cus = 0\n");
    auto n = tryNodeConfigFromConfig(cfg);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(n.status().message(), "NodeConfig: bad CU count 0");
}
