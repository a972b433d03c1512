/**
 * @file
 * Communication-pattern models for scale-out runs of the Table I
 * applications: how many bytes a node must move off-node per flop it
 * computes, and what that costs on a given inter-node network.
 *
 * Per-app communication volume derives from the KernelProfile: the
 * fraction of an app's memory traffic that leaves the package
 * (extTrafficFraction) over its arithmetic intensity bounds the bytes
 * per flop that are candidates for inter-node exchange; each pattern
 * then keeps the share it actually sends over the fabric (a halo
 * exchange ships only surfaces, an all-to-all reshuffles almost
 * everything).
 *
 * The cost model is bulk-synchronous with no compute/comm overlap:
 * for every second of node compute the network phase adds
 * overheadRatio() seconds, so communication efficiency is
 * 1 / (1 + overheadRatio). A zero-intensity spec costs exactly zero
 * and the efficiency is exactly 1.0 — that is what lets the cluster
 * projection reduce bit-identically to the node-only Fig. 14 numbers.
 */

#ifndef ENA_CLUSTER_COMM_PATTERN_HH
#define ENA_CLUSTER_COMM_PATTERN_HH

#include <string>
#include <vector>

#include "util/status.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

class InterNodeNetwork;

/** The communication patterns modeled for scale-out apps. */
enum class CommPattern
{
    Halo,       ///< nearest-neighbor halo exchange (stencils, MD)
    Allreduce,  ///< global reduction (dot products, time-step control)
    AllToAll,   ///< full personalized exchange (FFT transposes, sorting)
};

std::string commPatternName(CommPattern p);
Expected<CommPattern> tryCommPatternFromName(const std::string &name);
const std::vector<CommPattern> &allCommPatterns();

/** How the problem grows with the machine. */
enum class ScalingMode
{
    Weak,    ///< per-node problem size fixed as nodes are added
    Strong,  ///< total problem size fixed; per-node share shrinks
};

/** One scale-out communication scenario. */
struct CommSpec
{
    CommPattern pattern = CommPattern::Halo;

    /**
     * Scales the whole communication cost (volume and synchronization
     * alike). 1.0 is the profile-derived intensity; 0.0 is a machine
     * with free communication — the node-only projection.
     */
    double intensity = 1.0;

    ScalingMode scaling = ScalingMode::Weak;

    /** Pattern invocations per second of node compute (weak scaling). */
    double syncsPerSecond = 100.0;

    /** The zero-communication spec (reduces to Fig. 14 exactly). */
    static CommSpec
    none()
    {
        CommSpec s;
        s.intensity = 0.0;
        return s;
    }
};

/** Cost of one (profile, spec, network) communication scenario. */
struct CommCost
{
    double bytesPerFlop = 0.0;   ///< fabric bytes per computed flop
    double deliveredGbs = 0.0;   ///< per-node bandwidth the pattern gets
    double bwOverhead = 0.0;     ///< comm seconds per compute second
    double latOverhead = 0.0;    ///< sync seconds per compute second

    double overheadRatio() const { return bwOverhead + latOverhead; }

    /** Fraction of wall time spent computing; exactly 1 at zero cost. */
    double efficiency() const { return 1.0 / (1.0 + overheadRatio()); }
};

class CommModel
{
  public:
    /**
     * Fabric bytes per flop for @p k under @p spec on @p nodes nodes.
     * Strong scaling shrinks each node's domain, so the halo
     * surface-to-volume ratio grows with cbrt(nodes).
     */
    static double bytesPerFlop(const KernelProfile &k,
                               const CommSpec &spec, int nodes);

    /**
     * Full cost of running @p k at @p node_flops achieved flops/s per
     * node with the pattern mapped onto @p net.
     */
    static CommCost cost(const KernelProfile &k, const CommSpec &spec,
                         const InterNodeNetwork &net, double node_flops);
};

} // namespace ena

#endif // ENA_CLUSTER_COMM_PATTERN_HH
