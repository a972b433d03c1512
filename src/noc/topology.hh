/**
 * @file
 * Physical topology of the EHP's interposer interconnect (Fig. 2/3).
 *
 * Endpoint nodes are the chiplets and memory stacks; routers sit in the
 * active interposers beneath the chiplets. The default EHP floor order
 * along the package is G0 G1 G2 G3 C0 C1 G4 G5 G6 G7, with one router
 * under each chiplet position, routers connected left-to-right, and one
 * HBM stack reached through TSVs directly above each GPU chiplet.
 */

#ifndef ENA_NOC_TOPOLOGY_HH
#define ENA_NOC_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "noc/packet.hh"

namespace ena {

/** What an endpoint node is. */
enum class NodeKind : std::uint8_t
{
    GpuChiplet,
    CpuCluster,
    MemStack,
};

/** One endpoint attached to a router through TSVs. */
struct TopologyNode
{
    NodeId id = invalidNode;
    NodeKind kind = NodeKind::GpuChiplet;
    std::uint32_t router = 0;   ///< interposer router it attaches to
    std::string name;
};

/** One bidirectional router-to-router link. */
struct TopologyLink
{
    std::uint32_t routerA = 0;
    std::uint32_t routerB = 0;
};

class Topology
{
  public:
    /**
     * Build the default EHP topology: @p gpu_chiplets GPU chiplets with
     * one memory stack each, plus @p cpu_clusters CPU clusters in the
     * middle of the floor plan.
     */
    static Topology ehp(int gpu_chiplets = 8, int cpu_clusters = 2);

    /**
     * Build a pure router graph shaped as an nx x ny x nz torus with
     * wraparound links in every dimension of size >= 3 (size-2 rings
     * collapse to a single link; size-1 dimensions add none). Router id
     * of coordinate (x, y, z) is x + nx*(y + ny*z). No endpoint nodes
     * are attached: this exists so analytic inter-node network models
     * (src/cluster/) can validate their closed-form hop counts against
     * BFS-exact ones on small instances.
     */
    static Topology torus3d(int nx, int ny, int nz);

    const std::vector<TopologyNode> &nodes() const { return nodes_; }
    const std::vector<TopologyLink> &links() const { return links_; }
    std::uint32_t numRouters() const { return numRouters_; }

    /** Mesh geometry: routers form a 2 x columns() grid, row-major. */
    std::uint32_t columns() const { return cols_; }

    const TopologyNode &node(NodeId id) const;

    /** First node of a given kind and ordinal (e.g. 3rd GPU chiplet). */
    NodeId nodeOf(NodeKind kind, int ordinal) const;

    /** All node ids of one kind, in creation order. */
    std::vector<NodeId> nodesOf(NodeKind kind) const;

    /**
     * Next router on the (precomputed) shortest path from @p at toward
     * @p to; fatal() if unreachable.
     */
    std::uint32_t nextHop(std::uint32_t at, std::uint32_t to) const;

    /** Router hop count between two routers. */
    std::uint32_t hopCount(std::uint32_t from, std::uint32_t to) const;

  private:
    Topology() = default;

    NodeId addNode(NodeKind kind, std::uint32_t router, std::string name);
    void addLink(std::uint32_t a, std::uint32_t b);
    void computeRoutes();

    std::vector<TopologyNode> nodes_;
    std::vector<TopologyLink> links_;
    std::uint32_t numRouters_ = 0;
    std::uint32_t cols_ = 0;
    /** nextHop_[from][to] = next router id; hops_[from][to] = distance. */
    std::vector<std::vector<std::uint32_t>> nextHop_;
    std::vector<std::vector<std::uint32_t>> hops_;
};

} // namespace ena

#endif // ENA_NOC_TOPOLOGY_HH
