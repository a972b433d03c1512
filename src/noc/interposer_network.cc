#include "noc/interposer_network.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ena {

InterposerNetwork::InterposerNetwork(Simulation &sim,
                                     const std::string &name,
                                     const Topology &topo,
                                     InterposerParams params)
    : Network(sim, name, topo.nodes().size()),
      topo_(topo), params_(params)
{
    ENA_ASSERT(params_.linkBytesPerCycle > 0, "zero link width");
}

Tick
linkSerialization(std::uint32_t bytes, std::uint32_t link_bytes_per_cycle)
{
    // Flit-level occupancy: a 64 B packet on a 256 B/cycle link holds
    // it for a quarter cycle, not a full one.
    double cycles = static_cast<double>(bytes) / link_bytes_per_cycle;
    auto ticks = static_cast<Tick>(cycles * fabricCycle);
    return std::max<Tick>(ticks, 1);
}

void
InterposerNetwork::route(const Packet &pkt)
{
    const TopologyNode &src = topo_.node(pkt.src);
    const TopologyNode &dst = topo_.node(pkt.dst);
    Tick ser = linkSerialization(pkt.bytes, params_.linkBytesPerCycle);

    // Descend into the interposer.
    Tick t = curTick() + interposerTsvCycles * fabricCycle;

    std::uint32_t hops = 0;
    std::uint32_t at = src.router;
    while (at != dst.router) {
        std::uint32_t nh = topo_.nextHop(at, dst.router);
        // Router pipeline, then contend for the directed link.
        t += interposerRouterCycles * fabricCycle;
        Tick &busy = linkBusy_[{at, nh}];
        Tick depart = std::max(t, busy);
        busy = depart + ser;
        t = depart + ser + interposerLinkCycles * fabricCycle;
        at = nh;
        ++hops;
    }

    // Final router traversal and ascent to the destination chiplet.
    t += interposerRouterCycles * fabricCycle;
    t += interposerTsvCycles * fabricCycle;

    deliver(pkt, hops, t);
}

Tick
InterposerNetwork::zeroLoadLatency(NodeId src_id, NodeId dst_id,
                                   std::uint32_t bytes) const
{
    const TopologyNode &src = topo_.node(src_id);
    const TopologyNode &dst = topo_.node(dst_id);
    std::uint32_t hops = topo_.hopCount(src.router, dst.router);
    Tick t = 2 * interposerTsvCycles * fabricCycle;
    t += (hops + 1) * interposerRouterCycles * fabricCycle;
    t += hops * (linkSerialization(bytes, params_.linkBytesPerCycle) +
                 interposerLinkCycles * fabricCycle);
    return t;
}

} // namespace ena
