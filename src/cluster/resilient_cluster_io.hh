/**
 * @file
 * Config-file bindings for ResilienceSpec, mirroring
 * cluster_config_io.hh: the resiliency layer is described under the
 * "cluster.ras." prefix, so one "key = value" file can hold the full
 * fault-aware machine (ehp.* / extmem.* / opts.* for the node,
 * cluster.* for the fabric, cluster.ras.* for protection and
 * checkpointing) and be loaded by tryNodeConfigFromConfig,
 * tryClusterConfigFromConfig, and tryResilienceSpecFromConfig side by
 * side. Every key is optional (defaults = ResilienceSpec{}).
 *
 * Unknown "cluster.ras." keys are rejected to catch typos; keys
 * outside the prefix are ignored (they belong to the other layers).
 */

#ifndef ENA_CLUSTER_RESILIENT_CLUSTER_IO_HH
#define ENA_CLUSTER_RESILIENT_CLUSTER_IO_HH

#include "cluster/resilient_cluster.hh"
#include "util/config.hh"
#include "util/status.hh"

namespace ena {

/** ResilienceSpec's keys, in the order they are read (util/config.hh). */
template <typename F>
void
configFields(ResilienceSpec &s, F &&field)
{
    field("cluster.ras.faults_enabled", s.faultsEnabled);
    field("cluster.ras.dram_ecc", s.ras.dramEcc);
    field("cluster.ras.sram_ecc", s.ras.sramEcc);
    field("cluster.ras.gpu_rmt", s.ras.gpuRmt);
    field("cluster.ras.ntc_ser_multiplier", s.ras.ntcSerMultiplier);
    field("cluster.ras.rmt_policy", s.rmtPolicy, rmtPolicyName,
          tryRmtPolicyFromName);
    field("cluster.ras.checkpoint_bytes", s.checkpoint.checkpointBytes);
    field("cluster.ras.io_bandwidth_bps", s.checkpoint.ioBandwidthBps);
    field("cluster.ras.checkpoint_overhead_s", s.checkpoint.overheadS);
    field("cluster.ras.restart_extra_s", s.checkpoint.restartExtraS);
    field("cluster.ras.checkpoint_via_fabric", s.checkpointViaFabric);
}

/** Load a ResilienceSpec; errors carry the key and its source:line. */
inline Expected<ResilienceSpec>
tryResilienceSpecFromConfig(const Config &cfg)
{
    return readConfigFields<ResilienceSpec>(
        cfg, {"resilience-config", "cluster.ras."});
}

/** Serialize a ResilienceSpec back into a Config ("cluster.ras."). */
inline Config
resilienceSpecToConfig(const ResilienceSpec &s)
{
    return writeConfigFields(s);
}

} // namespace ena

#endif // ENA_CLUSTER_RESILIENT_CLUSTER_IO_HH
