/**
 * @file
 * Network-side wrapper of an HBM stack: receives request packets,
 * performs the timed stack access, and returns response packets to the
 * requester.
 */

#ifndef ENA_GPU_MEM_STACK_ENDPOINT_HH
#define ENA_GPU_MEM_STACK_ENDPOINT_HH

#include "mem/hbm_stack.hh"
#include "noc/network.hh"
#include "sim/sim_object.hh"

namespace ena {

class MemStackEndpoint : public SimObject, public NetworkEndpoint
{
  public:
    MemStackEndpoint(Simulation &sim, const std::string &name,
                     NodeId node_id, HbmStack &stack, Network &network);

    void receivePacket(const Packet &pkt) override;

  private:
    NodeId nodeId_;
    HbmStack &stack_;
    Network &network_;
};

} // namespace ena

#endif // ENA_GPU_MEM_STACK_ENDPOINT_HH
