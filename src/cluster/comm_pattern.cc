#include "cluster/comm_pattern.hh"

#include <cmath>

#include "cluster/internode_network.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

namespace {

// Share of an app's off-package traffic each pattern actually moves
// across the fabric: a halo ships domain surfaces, an allreduce a small
// reduction vector (per step; the 2(P-1)/P ring-volume factor is applied
// below), an all-to-all reshuffles about half the working set.
constexpr double haloShare = 0.05;
constexpr double allreduceShare = 0.02;
constexpr double allToAllShare = 0.5;

} // anonymous namespace

std::string
commPatternName(CommPattern p)
{
    switch (p) {
      case CommPattern::Halo:
        return "halo";
      case CommPattern::Allreduce:
        return "allreduce";
      case CommPattern::AllToAll:
        return "all-to-all";
    }
    ENA_FATAL("unknown CommPattern ", static_cast<int>(p));
}

Expected<CommPattern>
tryCommPatternFromName(const std::string &name)
{
    std::string n = toLower(name);
    for (CommPattern p : allCommPatterns()) {
        if (n == commPatternName(p))
            return p;
    }
    if (n == "alltoall" || n == "all_to_all" || n == "a2a")
        return CommPattern::AllToAll;
    if (n == "nearest-neighbor" || n == "stencil")
        return CommPattern::Halo;
    return Status::invalidArgument(
        "unknown comm pattern '", name,
        "' (want halo, allreduce, or all-to-all)");
}

const std::vector<CommPattern> &
allCommPatterns()
{
    static const std::vector<CommPattern> all = {
        CommPattern::Halo,
        CommPattern::Allreduce,
        CommPattern::AllToAll,
    };
    return all;
}

double
CommModel::bytesPerFlop(const KernelProfile &k, const CommSpec &spec,
                        int nodes)
{
    ENA_ASSERT(nodes > 0, "need a positive node count");
    if (nodes == 1)
        return 0.0;   // nothing to exchange with
    const double p = nodes;
    // Bytes per flop that leave the package at all; the pattern then
    // decides how much of that crosses the fabric.
    const double off_package =
        k.extTrafficFraction / k.arithmeticIntensity;

    double share = 0.0;
    switch (spec.pattern) {
      case CommPattern::Halo:
        share = haloShare;
        break;
      case CommPattern::Allreduce:
        // Bandwidth-optimal ring: each node moves 2(P-1)/P of the
        // reduction volume.
        share = allreduceShare * 2.0 * (p - 1.0) / p;
        break;
      case CommPattern::AllToAll:
        // A node keeps 1/P of the reshuffled data local.
        share = allToAllShare * (p - 1.0) / p;
        break;
    }

    // Strong scaling shrinks the per-node domain: a 3D decomposition's
    // surface-to-volume ratio — and hence bytes moved per flop
    // computed — grows with cbrt(P).
    const double scale =
        spec.scaling == ScalingMode::Strong ? std::cbrt(p) : 1.0;

    return spec.intensity * off_package * share * scale;
}

CommCost
CommModel::cost(const KernelProfile &k, const CommSpec &spec,
                const InterNodeNetwork &net, double node_flops)
{
    const int nodes = net.config().nodes;
    CommCost c;
    c.bytesPerFlop = bytesPerFlop(k, spec, nodes);
    c.deliveredGbs = net.deliveredGbs(spec.pattern);

    // Bulk-synchronous, no overlap: for each second of compute the node
    // produces node_flops * bytesPerFlop bytes that drain at the
    // pattern's deliverable bandwidth.
    c.bwOverhead =
        node_flops * c.bytesPerFlop / (c.deliveredGbs * 1e9);

    // Synchronization: each pattern invocation pays the network's
    // latency; an allreduce pays it once per reduction-tree level.
    double hops = 0.0;
    double steps = 1.0;
    switch (spec.pattern) {
      case CommPattern::Halo:
        hops = net.neighborHops();
        break;
      case CommPattern::Allreduce:
        hops = net.avgHops();
        steps = std::ceil(std::log2(static_cast<double>(nodes)));
        steps = std::max(steps, 1.0);
        break;
      case CommPattern::AllToAll:
        hops = net.avgHops();
        break;
    }
    // Under strong scaling the same sync count amortizes over 1/P of
    // the compute, so per-compute-second sync cost grows with P.
    const double strong_factor =
        spec.scaling == ScalingMode::Strong
            ? static_cast<double>(nodes)
            : 1.0;
    c.latOverhead = nodes == 1
                        ? 0.0
                        : spec.intensity * spec.syncsPerSecond * steps *
                              net.latencyUs(hops) * 1e-6 * strong_factor;
    return c;
}

} // namespace ena
