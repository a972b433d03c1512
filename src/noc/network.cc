#include "noc/network.hh"

#include "sim/simulation.hh"
#include "util/logging.hh"

namespace ena {

Network::Network(Simulation &sim, const std::string &name,
                 size_t num_nodes)
    : SimObject(sim, name),
      endpoints_(num_nodes, nullptr),
      statPackets_(sim.stats(), name + ".packets", "packets injected"),
      statBytes_(sim.stats(), name + ".bytes", "payload bytes injected"),
      statHops_(sim.stats(), name + ".hops", "total router hops"),
      statByteHops_(sim.stats(), name + ".byteHops",
                    "byte-hops traversed (energy proxy)"),
      statLatency_(sim.stats(), name + ".latency",
                   "packet latency (ns)", 0.0, 1000.0, 50)
{
}

void
Network::attach(NodeId id, NetworkEndpoint *ep)
{
    ENA_ASSERT(id < endpoints_.size(), "attach: bad node id ", id);
    ENA_ASSERT(!endpoints_[id], "node ", id, " already attached");
    endpoints_[id] = ep;
}

void
Network::scheduleDelivery(const Packet &pkt, Tick arrival)
{
    ENA_ASSERT(pkt.dst < endpoints_.size(), "send: bad dst node ",
               pkt.dst);
    NetworkEndpoint *ep = endpoints_[pkt.dst];
    ENA_ASSERT(ep, "send: node ", pkt.dst, " has no endpoint");
    statLatency_.sample(
        static_cast<double>(arrival - curTick()) / tickPerNs);
    eventq().scheduleLambda(
        arrival, [ep, pkt] { ep->receivePacket(pkt); }, "packet delivery");
}

void
Network::recordPacket(const Packet &pkt, std::uint32_t hops)
{
    ++statPackets_;
    statBytes_ += pkt.bytes;
    statHops_ += hops;
    statByteHops_ += static_cast<double>(pkt.bytes) * hops;
}

} // namespace ena
