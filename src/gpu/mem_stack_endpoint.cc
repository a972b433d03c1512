#include "gpu/mem_stack_endpoint.hh"

#include "util/logging.hh"

namespace ena {

MemStackEndpoint::MemStackEndpoint(Simulation &sim,
                                   const std::string &name,
                                   NodeId node_id, HbmStack &stack,
                                   Network &network)
    : SimObject(sim, name), nodeId_(node_id), stack_(stack),
      network_(network)
{
    network_.attach(nodeId_, this);
}

void
MemStackEndpoint::receivePacket(const Packet &pkt)
{
    ENA_ASSERT(!pkt.isResponse, name(), " received a response packet");

    if (!pkt.needsResponse) {
        // Posted writeback: just perform the access.
        stack_.access(pkt.addr, lineBytes, true, [] {});
        return;
    }

    Packet resp;
    resp.id = pkt.id;
    resp.src = nodeId_;
    resp.dst = pkt.src;
    resp.bytes = pkt.isWrite ? headerBytes : lineBytes;
    resp.isResponse = true;
    resp.addr = pkt.addr;
    resp.isWrite = pkt.isWrite;

    stack_.access(pkt.addr, lineBytes, pkt.isWrite,
                  [this, resp] { network_.send(resp); });
}

} // namespace ena
