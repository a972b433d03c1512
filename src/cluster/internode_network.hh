/**
 * @file
 * Analytic model of the SerDes inter-node network connecting ENA nodes
 * (paper Section II-A). The machine is far too large for all-pairs
 * routing (100,000 nodes), so the model is closed-form: per-topology
 * hop counts, bisection bandwidth, and pattern-dependent deliverable
 * per-node bandwidth, derived from the same switch/link abstractions
 * the on-package interconnect uses (src/noc/topology.hh provides the
 * BFS-exact reference the torus formulas are validated against).
 *
 * Topology shapes, each derived from the node count:
 *  - fat-tree:   three-level folded Clos of radix-k switches (k^3/4
 *                nodes), the smallest even k that holds every node,
 *                optionally tapered above the leaf level;
 *  - dragonfly:  balanced (p = h = a/2, g = a*h + 1 groups), the
 *                smallest even a that holds every node, minimal
 *                routing with at most one global hop;
 *  - 3d-torus:   one switch per node, near-cubic dimensions.
 *
 * Hop counts include the node-to-switch links, so a torus neighbor is
 * 1 hop and a fat-tree same-leaf pair is 2 hops.
 */

#ifndef ENA_CLUSTER_INTERNODE_NETWORK_HH
#define ENA_CLUSTER_INTERNODE_NETWORK_HH

#include <cstdint>
#include <string>

#include "cluster/cluster_config.hh"
#include "cluster/comm_pattern.hh"
#include "noc/topology.hh"

namespace ena {

class InterNodeNetwork
{
  public:
    explicit InterNodeNetwork(const ClusterConfig &cfg);

    const ClusterConfig &config() const { return cfg_; }

    /** Average node-to-node hop count under uniform random traffic. */
    double avgHops() const { return avgHops_; }

    /** Worst-case node-to-node hop count. */
    double diameterHops() const { return diameterHops_; }

    /** Hop count to a logically adjacent rank (halo neighbors). */
    double neighborHops() const { return neighborHops_; }

    /** Aggregate bandwidth across the worst-case bisection (GB/s). */
    double bisectionGbs() const { return bisectionGbs_; }

    /** Per-node injection bandwidth (GB/s). */
    double injectionGbs() const { return cfg_.injectionGbs(); }

    /** Switches in the fabric (torus: one per node). */
    std::uint64_t switchCount() const { return switches_; }

    /**
     * Bandwidth one node can sustain under a pattern (GB/s): injection
     * for neighbor/tree traffic, bisection-limited for all-to-all.
     */
    double deliveredGbs(CommPattern p) const;

    /** One-way latency of a message traversing @p hops links (us). */
    double
    latencyUs(double hops) const
    {
        return hops * cfg_.linkLatencyUs;
    }

    /** Derived torus dimensions (fatal() for other topologies). */
    void torusDims(int &nx, int &ny, int &nz) const;

    /** Derived fat-tree switch radix (fatal() otherwise). */
    int fatTreeRadix() const;

    /** Derived dragonfly routers per group (fatal() otherwise). */
    int dragonflyGroupRouters() const;

    /**
     * Build the torus as an explicit router graph on the on-package
     * interconnect's Topology abstraction — BFS-exact hop counts for
     * validating the closed forms. fatal() unless the topology is a
     * small 3d-torus (see Topology::torus3d).
     */
    Topology smallTorusTopology() const;

    /** Multi-line human-readable summary for tools. */
    std::string describe() const;

  private:
    void buildFatTree();
    void buildDragonfly();
    void buildTorus();

    ClusterConfig cfg_;
    double avgHops_ = 0.0;
    double diameterHops_ = 0.0;
    double neighborHops_ = 0.0;
    double bisectionGbs_ = 0.0;
    std::uint64_t switches_ = 0;
    std::uint64_t fabricLinks_ = 0;
    int fatTreeRadix_ = 0;
    int dragonflyA_ = 0;       ///< routers per group
    int torusX_ = 0, torusY_ = 0, torusZ_ = 0;
};

} // namespace ena

#endif // ENA_CLUSTER_INTERNODE_NETWORK_HH
