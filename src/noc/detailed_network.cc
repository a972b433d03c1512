#include "noc/detailed_network.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ena {

namespace {

/** Pseudo-router id for the injection port. */
constexpr std::uint32_t injectPort = ~std::uint32_t(0);

} // anonymous namespace

DetailedNetwork::DetailedNetwork(Simulation &sim, const std::string &name,
                                 const Topology &topo,
                                 DetailedParams params)
    : Network(sim, name, topo.nodes().size()), topo_(topo),
      params_(params)
{
    ENA_ASSERT(params_.bufferPackets > 0, "need buffer capacity");
    ENA_ASSERT(topo_.columns() > 0, "topology lacks mesh geometry");
}

std::uint32_t
DetailedNetwork::nextHopXY(std::uint32_t at, std::uint32_t to) const
{
    ENA_ASSERT(at != to, "nextHopXY at destination");
    std::uint32_t cols = topo_.columns();
    std::uint32_t at_col = at % cols;
    std::uint32_t to_col = to % cols;
    if (at_col < to_col)
        return at + 1;
    if (at_col > to_col)
        return at - 1;
    // Same column: move vertically.
    return at < to ? at + cols : at - cols;
}

void
DetailedNetwork::route(const Packet &pkt)
{
    const TopologyNode &src = topo_.node(pkt.src);
    Packet copy = pkt;
    std::uint32_t r = src.router;
    auto inject = [this, copy, r] {
        // Injection contends for the router's injection-port
        // buffer like any other input.
        PortKey port{r, injectPort};
        if (occ_[port] >= params_.bufferPackets) {
            ++bufferStalls_;
            waiting_[port].push_back({copy, r, injectPort, 0});
            return;
        }
        ++occ_[port];
        arriveAtRouter(copy, r, injectPort, 0);
    };
    eventq().scheduleLambda(
        curTick() + interposerTsvCycles * fabricCycle, std::move(inject));
}

void
DetailedNetwork::arriveAtRouter(Packet pkt, std::uint32_t r,
                                std::uint32_t in_port,
                                std::uint32_t hops)
{
    eventq().scheduleLambda(
        curTick() + interposerRouterCycles * fabricCycle,
        [this, pkt, r, in_port, hops] {
            departRouter(pkt, r, in_port, hops);
        });
}

void
DetailedNetwork::departRouter(Packet pkt, std::uint32_t r,
                              std::uint32_t in_port, std::uint32_t hops)
{
    std::uint32_t dst_router = topo_.node(pkt.dst).router;
    if (r == dst_router) {
        // Ascend to the endpoint; the input buffer frees now.
        releaseSlot(r, in_port);
        deliver(pkt, hops, curTick() + interposerTsvCycles * fabricCycle);
        return;
    }
    tryTraverse(pkt, r, in_port, nextHopXY(r, dst_router), hops);
}

void
DetailedNetwork::tryTraverse(Packet pkt, std::uint32_t r,
                             std::uint32_t in_port, std::uint32_t nh,
                             std::uint32_t hops)
{
    // The downstream input port for the r -> nh link is keyed by r.
    PortKey down{nh, r};
    if (occ_[down] >= params_.bufferPackets) {
        ++bufferStalls_;
        waiting_[down].push_back({pkt, r, in_port, hops});
        return;
    }
    // Reserve the downstream slot (virtual cut-through), cross the
    // link; the upstream slot frees when the tail has left.
    ++occ_[down];
    Tick ser = linkSerialization(pkt.bytes, params_.linkBytesPerCycle);
    Tick &busy = linkBusy_[{r, nh}];
    Tick depart = std::max(curTick(), busy);
    busy = depart + ser;
    Tick tail_out = depart + ser;
    Tick arrive = tail_out + interposerLinkCycles * fabricCycle;

    eventq().scheduleLambda(
        tail_out, [this, r, in_port] { releaseSlot(r, in_port); });
    eventq().scheduleLambda(arrive, [this, pkt, nh, r, hops] {
        arriveAtRouter(pkt, nh, r, hops + 1);
    });
}

void
DetailedNetwork::releaseSlot(std::uint32_t r, std::uint32_t in_port)
{
    PortKey port{r, in_port};
    auto it = occ_.find(port);
    ENA_ASSERT(it != occ_.end() && it->second > 0,
               "releasing an empty buffer slot");
    --it->second;

    auto wit = waiting_.find(port);
    if (wit == waiting_.end() || wit->second.empty())
        return;
    Waiting w = wit->second.front();
    wit->second.pop_front();
    if (w.inPort == injectPort && w.atRouter == r) {
        // Parked injection directly into this router.
        ++it->second;
        arriveAtRouter(w.pkt, r, injectPort, 0);
        return;
    }
    // Parked forwarder at w.atRouter wanting to enter r.
    tryTraverse(w.pkt, w.atRouter, w.inPort, r, w.hops);
}

} // namespace ena
