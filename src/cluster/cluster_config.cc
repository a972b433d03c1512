#include "cluster/cluster_config.hh"

#include "util/string_utils.hh"

namespace ena {

std::string
clusterTopologyName(ClusterTopology t)
{
    switch (t) {
      case ClusterTopology::FatTree:
        return "fat-tree";
      case ClusterTopology::Dragonfly:
        return "dragonfly";
      case ClusterTopology::Torus3D:
        return "3d-torus";
    }
    ENA_FATAL("unknown ClusterTopology ", static_cast<int>(t));
}

Expected<ClusterTopology>
tryClusterTopologyFromName(const std::string &name)
{
    std::string n = toLower(name);
    for (ClusterTopology t : allClusterTopologies()) {
        if (n == clusterTopologyName(t))
            return t;
    }
    // Accept a few obvious spellings used in configs and CLIs.
    if (n == "fattree" || n == "fat_tree" || n == "clos")
        return ClusterTopology::FatTree;
    if (n == "torus" || n == "torus3d" || n == "3d_torus")
        return ClusterTopology::Torus3D;
    return Status::invalidArgument(
        "unknown cluster topology '", name,
        "' (want fat-tree, dragonfly, or 3d-torus)");
}

const std::vector<ClusterTopology> &
allClusterTopologies()
{
    static const std::vector<ClusterTopology> all = {
        ClusterTopology::FatTree,
        ClusterTopology::Dragonfly,
        ClusterTopology::Torus3D,
    };
    return all;
}

} // namespace ena
