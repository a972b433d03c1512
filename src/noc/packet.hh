/**
 * @file
 * Network packet for the chiplet/interposer interconnect.
 *
 * Packets are request/response pairs between endpoint nodes (GPU
 * chiplets, CPU clusters, memory stacks). Payload routing back to the
 * requester is handled by the memory-system callbacks, not the network,
 * so the packet itself stays a plain value type.
 */

#ifndef ENA_NOC_PACKET_HH
#define ENA_NOC_PACKET_HH

#include <cstdint>

#include "util/units.hh"

namespace ena {

/** Endpoint node index within a Topology. */
using NodeId = std::uint32_t;

constexpr NodeId invalidNode = ~NodeId(0);

struct Packet
{
    std::uint64_t id = 0;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    std::uint32_t bytes = 0;
    bool isResponse = false;
    /** Set by Network::send(). */
    Tick injectTick = 0;
    /** Memory address carried for the memory-side endpoints. */
    std::uint64_t addr = 0;
    bool isWrite = false;
    /** Posted writes (writebacks) carry no response. */
    bool needsResponse = true;
};

} // namespace ena

#endif // ENA_NOC_PACKET_HH
