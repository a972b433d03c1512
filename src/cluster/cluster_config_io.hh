/**
 * @file
 * Config-file bindings for ClusterConfig, mirroring node_config_io.hh:
 * the cluster is described under the "cluster." prefix so one file can
 * hold a full machine description (ehp.* / extmem.* / opts.* for the
 * node next to cluster.* for the scale-out layer) and be loaded by both
 * tryNodeConfigFromConfig and tryClusterConfigFromConfig. Every key is
 * optional (defaults = ClusterConfig{}).
 *
 * Unknown "cluster." keys are rejected to catch typos; keys outside the
 * prefix are ignored (they belong to the node layers), as are
 * "cluster.ras." keys (the resiliency layer's; see
 * resilient_cluster_io.hh).
 */

#ifndef ENA_CLUSTER_CLUSTER_CONFIG_IO_HH
#define ENA_CLUSTER_CLUSTER_CONFIG_IO_HH

#include "cluster/cluster_config.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace ena {

/** ClusterConfig's keys, in the order they are read (util/config.hh). */
template <typename F>
void
configFields(ClusterConfig &c, F &&field)
{
    field("cluster.nodes", c.nodes);
    field("cluster.topology", c.topology, clusterTopologyName,
          tryClusterTopologyFromName);
    field("cluster.links_per_node", c.linksPerNode);
    field("cluster.link_gbs", c.linkGbs);
    field("cluster.link_latency_us", c.linkLatencyUs);
    field("cluster.pj_per_bit", c.pjPerBit);
    field("cluster.fat_tree_taper", c.fatTreeTaper);
}

/** Load a ClusterConfig; errors carry the key and its source:line. */
inline Expected<ClusterConfig>
tryClusterConfigFromConfig(const Config &cfg)
{
    return readConfigFields<ClusterConfig>(
        cfg, {"cluster-config", "cluster.", {"cluster.ras."}});
}

/** Serialize a ClusterConfig back into a Config ("cluster." keys). */
inline Config
clusterConfigToConfig(const ClusterConfig &c)
{
    return writeConfigFields(c);
}

} // namespace ena

#endif // ENA_CLUSTER_CLUSTER_CONFIG_IO_HH
