#include "noc/network.hh"

#include "util/logging.hh"

namespace ena {

Network::Network(Simulation &sim, const std::string &name,
                 size_t num_nodes)
    : SimObject(sim, name), endpoints_(num_nodes, nullptr)
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
Network::send(Packet pkt)
{
    pkt.injectTick = curTick();
    route(pkt);
}

void
Network::deliver(const Packet &pkt, std::uint32_t hops, Tick arrival)
{
    ENA_ASSERT(pkt.dst < endpoints_.size(), "send: bad dst node ",
               pkt.dst);
    NetworkEndpoint *ep = endpoints_[pkt.dst];
    ENA_ASSERT(ep, "send: node ", pkt.dst, " has no endpoint");
    ++packets_;
    bytes_ += pkt.bytes;
    hops_ += hops;
    byteHops_ += static_cast<std::uint64_t>(pkt.bytes) * hops;
    latencySumNs_ +=
        static_cast<double>(arrival - pkt.injectTick) / tickPerNs;
    eventq().scheduleLambda(arrival, [ep, pkt] { ep->receivePacket(pkt); });
}

} // namespace ena
