/**
 * @file
 * Config-file bindings for NodeConfig: load a node description from a
 * "key = value" Config so examples/tools can be driven by files rather
 * than code. Unknown keys are rejected to catch typos; every key is
 * optional (defaults = NodeConfig{}).
 *
 * "cluster." and "taskgraph." keys are ignored here: they describe the
 * scale-out layer and the workload DAG, and are owned by
 * tryClusterConfigFromConfig (src/cluster/cluster_config_io.hh) and
 * tryTaskGraphSpecFromConfig (src/taskgraph/task_dag_io.hh), so a
 * single file can describe the node and the machine around it.
 */

#ifndef ENA_COMMON_NODE_CONFIG_IO_HH
#define ENA_COMMON_NODE_CONFIG_IO_HH

#include "common/node_config.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace ena {

/** NodeConfig's keys, in the order they are read (util/config.hh). */
template <typename F>
void
configFields(NodeConfig &n, F &&field)
{
    field("ehp.cus", n.cus);
    field("ehp.freq_ghz", n.freqGhz);
    field("ehp.bw_tbs", n.bwTbs);
    field("ehp.gpu_chiplets", n.gpuChiplets);
    field("ehp.cpu_chiplets", n.cpuChiplets);
    field("ehp.cores_per_cpu_chiplet", n.coresPerCpuChiplet);
    field("ehp.in_package_gb", n.inPackageGb);
    field("extmem.dram_gb", n.ext.dramGb);
    field("extmem.nvm_gb", n.ext.nvmGb);
    field("extmem.dram_module_gb", n.ext.dramModuleGb);
    field("extmem.nvm_module_gb", n.ext.nvmModuleGb);
    field("extmem.interfaces", n.ext.interfaces);
    field("extmem.interface_gbs", n.ext.interfaceGbs);
    field("opts.ntc", n.opts.ntc);
    field("opts.async_cu", n.opts.asyncCu);
    field("opts.async_router", n.opts.asyncRouter);
    field("opts.lp_links", n.opts.lpLinks);
    field("opts.compression", n.opts.compression);
}

/** Load a NodeConfig; errors carry the key and its source:line. */
inline Expected<NodeConfig>
tryNodeConfigFromConfig(const Config &cfg)
{
    return readConfigFields<NodeConfig>(
        cfg, {"node-config", "", {"cluster.", "taskgraph."}});
}

/** Serialize a NodeConfig back into a Config. */
inline Config
nodeConfigToConfig(const NodeConfig &n)
{
    return writeConfigFields(n);
}

} // namespace ena

#endif // ENA_COMMON_NODE_CONFIG_IO_HH
