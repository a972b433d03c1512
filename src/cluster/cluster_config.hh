/**
 * @file
 * Hardware configuration of the scale-out machine built from ENA nodes:
 * node count, inter-node topology, and the SerDes links that connect
 * them (paper Section II-A: "nodes communicate through a SerDes-based
 * inter-node network"; Section V-F scales one node to 100,000). The
 * fabric's shape is not configured: InterNodeNetwork derives the
 * fat-tree radix, the dragonfly group size and the torus dimensions
 * from the node count.
 *
 * The node itself is described by NodeConfig; ClusterConfig adds the
 * layer above it and is loadable from the same "key = value" config
 * files under the "cluster." prefix (see cluster_config_io.hh).
 */

#ifndef ENA_CLUSTER_CLUSTER_CONFIG_HH
#define ENA_CLUSTER_CLUSTER_CONFIG_HH

#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/status.hh"
#include "util/string_utils.hh"

namespace ena {

/** Inter-node network topologies modeled analytically. */
enum class ClusterTopology
{
    FatTree,    ///< three-level folded Clos, optionally tapered
    Dragonfly,  ///< balanced dragonfly (a = 2h, one global hop)
    Torus3D,    ///< 3D torus, one switch per node
};

/** Display name ("fat-tree" / "dragonfly" / "3d-torus"). */
std::string clusterTopologyName(ClusterTopology t);

/** Parse a topology name (case-insensitive). */
Expected<ClusterTopology> tryClusterTopologyFromName(
    const std::string &name);

/** All modeled topologies, in enum order. */
const std::vector<ClusterTopology> &allClusterTopologies();

/** The scale-out machine's configuration. */
struct ClusterConfig
{
    int nodes = 100000;         ///< paper Section V-F system size

    ClusterTopology topology = ClusterTopology::FatTree;

    // --- SerDes inter-node links ---
    int linksPerNode = 4;       ///< NIC SerDes ports per ENA node
    double linkGbs = 25.0;      ///< GB/s per link per direction
    double linkLatencyUs = 0.5; ///< per-hop link + switch latency
    double pjPerBit = 10.0;     ///< SerDes+switch energy per bit per hop

    double fatTreeTaper = 1.0;  ///< >=1; 2.0 halves bisection bandwidth

    /** Per-node injection bandwidth into the fabric (GB/s). */
    double injectionGbs() const { return linksPerNode * linkGbs; }

    /** Sanity-check ranges; the error names the offending knob. */
    Status
    tryValidate() const
    {
        if (nodes <= 0 || nodes > 100000000) {
            return Status::outOfRange("ClusterConfig: bad node count ",
                                      nodes);
        }
        if (linksPerNode <= 0 || linksPerNode > 1024) {
            return Status::outOfRange(
                "ClusterConfig: bad links-per-node ", linksPerNode);
        }
        if (linkGbs <= 0.0 || linkGbs > 10000.0) {
            return Status::outOfRange("ClusterConfig: bad link "
                                      "bandwidth ", linkGbs, " GB/s");
        }
        if (linkLatencyUs <= 0.0 || linkLatencyUs > 1000.0) {
            return Status::outOfRange("ClusterConfig: bad link latency ",
                                      linkLatencyUs, " us");
        }
        if (pjPerBit < 0.0 || pjPerBit > 1000.0) {
            return Status::outOfRange("ClusterConfig: bad link energy ",
                                      pjPerBit, " pJ/bit");
        }
        if (fatTreeTaper < 1.0) {
            return Status::outOfRange(
                "ClusterConfig: fat-tree taper must be >= 1, got ",
                fatTreeTaper);
        }
        return Status();
    }

    /** Legacy flavor: fatal() on nonsense. */
    void validate() const { checkOrFatal(tryValidate()); }

    /** Short "fat-tree x100000 @4x25GBps" label for tables. */
    std::string
    label() const
    {
        return strformat("%s x%d @%dx%.0fGBps",
                         clusterTopologyName(topology).c_str(), nodes,
                         linksPerNode, linkGbs);
    }

    /** The paper's 100,000-node exascale machine on the default links. */
    static ClusterConfig exascale() { return {}; }
};

} // namespace ena

#endif // ENA_CLUSTER_CLUSTER_CONFIG_HH
