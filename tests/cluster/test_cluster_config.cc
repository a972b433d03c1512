/**
 * @file
 * ClusterConfig: defaults, validation, naming, and the "cluster."
 * config-file bindings (including combined node + cluster files).
 */

#include <gtest/gtest.h>

#include "cluster/cluster_config_io.hh"
#include "common/node_config_io.hh"

using namespace ena;

TEST(ClusterConfig, ExascaleDefaults)
{
    ClusterConfig c = ClusterConfig::exascale();
    EXPECT_EQ(c.nodes, 100000);
    EXPECT_EQ(c.topology, ClusterTopology::FatTree);
    EXPECT_EQ(c.linksPerNode, 4);
    EXPECT_DOUBLE_EQ(c.linkGbs, 25.0);
    EXPECT_DOUBLE_EQ(c.injectionGbs(), 100.0);
    EXPECT_DOUBLE_EQ(c.fatTreeTaper, 1.0);
    c.validate();   // must not be fatal
}

TEST(ClusterConfig, LabelNamesTheMachine)
{
    ClusterConfig c;
    EXPECT_EQ(c.label(), "fat-tree x100000 @4x25GBps");
    c.topology = ClusterTopology::Torus3D;
    c.nodes = 1000;
    c.linksPerNode = 6;
    EXPECT_EQ(c.label(), "3d-torus x1000 @6x25GBps");
}

TEST(ClusterConfig, TopologyNamesRoundTrip)
{
    for (ClusterTopology t : allClusterTopologies())
        EXPECT_EQ(*tryClusterTopologyFromName(clusterTopologyName(t)), t);
    // Case-insensitive, with a few aliases.
    EXPECT_EQ(*tryClusterTopologyFromName("Fat-Tree"),
              ClusterTopology::FatTree);
    EXPECT_EQ(*tryClusterTopologyFromName("fattree"),
              ClusterTopology::FatTree);
    EXPECT_EQ(*tryClusterTopologyFromName("DRAGONFLY"),
              ClusterTopology::Dragonfly);
    EXPECT_EQ(*tryClusterTopologyFromName("torus"),
              ClusterTopology::Torus3D);
}

// The fatal name parser is gone; CLIs unwrap the error at their own
// boundary. The test keeps its name and pins the Status.
TEST(ClusterConfigDeathTest, UnknownTopologyIsFatal)
{
    auto t = tryClusterTopologyFromName("hypercube");
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(t.status().message(),
              "unknown cluster topology 'hypercube' "
              "(want fat-tree, dragonfly, or 3d-torus)");
}

TEST(ClusterConfigDeathTest, ValidateCatchesNonsense)
{
    ClusterConfig c;
    c.nodes = 0;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "bad node count");
    c = ClusterConfig{};
    c.fatTreeTaper = 0.5;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "taper must be >= 1");
}

TEST(ClusterConfigIo, RoundTripsThroughConfig)
{
    // Every field off its default, so a key missing from the field
    // list, or bound to the wrong member, shows up here.
    ClusterConfig c;
    c.nodes = 4096;
    c.topology = ClusterTopology::Dragonfly;
    c.linksPerNode = 8;
    c.linkGbs = 50.0;
    c.linkLatencyUs = 0.25;
    c.pjPerBit = 5.0;
    c.fatTreeTaper = 2.0;

    // bench_taskgraph sends these bytes as part of a request's config.
    const Config text = clusterConfigToConfig(c);
    EXPECT_EQ(text.toString(),
              "cluster.fat_tree_taper = 2\n"
              "cluster.link_gbs = 50\n"
              "cluster.link_latency_us = 0.25\n"
              "cluster.links_per_node = 8\n"
              "cluster.nodes = 4096\n"
              "cluster.pj_per_bit = 5\n"
              "cluster.topology = dragonfly\n");

    auto back = tryClusterConfigFromConfig(text);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->nodes, c.nodes);
    EXPECT_EQ(back->topology, c.topology);
    EXPECT_EQ(back->linksPerNode, c.linksPerNode);
    EXPECT_EQ(back->linkGbs, c.linkGbs);
    EXPECT_EQ(back->linkLatencyUs, c.linkLatencyUs);
    EXPECT_EQ(back->pjPerBit, c.pjPerBit);
    EXPECT_EQ(back->fatTreeTaper, c.fatTreeTaper);
}

TEST(ClusterConfigIo, OneFileDescribesNodeAndCluster)
{
    // A combined machine description: node keys and cluster keys in
    // the same file, each loader picking up its own prefix.
    Config cfg = *Config::tryFromString(R"(
        ehp.cus = 256
        ehp.freq_ghz = 1.2
        cluster.nodes = 2000
        cluster.topology = 3d-torus
    )");

    NodeConfig node = *tryNodeConfigFromConfig(cfg);
    EXPECT_EQ(node.cus, 256);
    EXPECT_DOUBLE_EQ(node.freqGhz, 1.2);

    ClusterConfig cluster = *tryClusterConfigFromConfig(cfg);
    EXPECT_EQ(cluster.nodes, 2000);
    EXPECT_EQ(cluster.topology, ClusterTopology::Torus3D);
}

TEST(ClusterConfigIo, DefaultsWhenNoClusterKeys)
{
    Config cfg = *Config::tryFromString("ehp.cus = 128\n");
    ClusterConfig c = *tryClusterConfigFromConfig(cfg);
    EXPECT_EQ(c.nodes, ClusterConfig{}.nodes);
    EXPECT_EQ(c.topology, ClusterConfig{}.topology);
}

// The fatal loader is gone; CLIs unwrap the error at their own
// boundary. The test keeps its name and pins the Status.
TEST(ClusterConfigIoDeathTest, TyposInClusterKeysAreFatal)
{
    Config cfg = *Config::tryFromString("cluster.nodez = 10\n", "c.ini");
    auto c = tryClusterConfigFromConfig(cfg);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(c.status().message(),
              "unknown cluster-config key 'cluster.nodez' (c.ini:1)");
}

// The fabric's shape is derived from the node count, never read: each
// key that once set it is a typo like any other.
TEST(ClusterConfigIo, ShapeKeysAreUnknown)
{
    for (const char *key :
         {"cluster.fat_tree_radix", "cluster.dragonfly_group_routers",
          "cluster.torus_x", "cluster.torus_y", "cluster.torus_z"}) {
        Config cfg = *Config::tryFromString(
            std::string("cluster.nodes = 64\n") + key + " = 4\n", "c.ini");
        auto c = tryClusterConfigFromConfig(cfg);
        ASSERT_FALSE(c.ok()) << key;
        EXPECT_EQ(c.status().code(), ErrorCode::InvalidArgument) << key;
        EXPECT_EQ(c.status().message(),
                  "unknown cluster-config key '" + std::string(key) +
                      "' (c.ini:2)");
    }
}
