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

/** Bytes of a packet that carries no data: a read request or a write
 *  acknowledgement. */
constexpr std::uint32_t headerBytes = 16;

/** Bytes of a packet that carries one cache line: a read response, a
 *  write or a writeback. Also the line size of the GPU caches and the
 *  HBM channel interleave. */
constexpr std::uint32_t lineBytes = 64;

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
