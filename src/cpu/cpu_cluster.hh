/**
 * @file
 * CPU cluster model for the cycle-level EHP simulation.
 *
 * The EHP's CPU cores orchestrate GPU work and run serial sections; in
 * the Fig. 7 study their visible effect is CPU<->memory and CPU<->GPU
 * traffic crossing the interposer. Each cluster of 16 cores issues
 * pipelined reads and writes (30% writes) into the shared region at
 * address 0, with a configurable rate per core, via the same
 * network/stack path as the GPU chiplets. Cluster i reads its own
 * network node and every stack's node from the Topology.
 */

#ifndef ENA_CPU_CPU_CLUSTER_HH
#define ENA_CPU_CPU_CLUSTER_HH

#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "noc/network.hh"
#include "sim/sim_object.hh"
#include "util/rng.hh"

namespace ena {

struct CpuClusterParams
{
    double accessNsPerCore = 400.0;  ///< mean gap between core accesses
    std::uint64_t sharedSize = 64ull << 20;
    std::uint64_t seed = 999;
    /** Stop issuing after this many accesses (0 = unlimited). */
    std::uint64_t maxAccesses = 0;
};

class Topology;

class CpuCluster : public SimObject, public NetworkEndpoint
{
  public:
    /** CPU cluster @p index of @p topo. */
    CpuCluster(Simulation &sim, const std::string &name, int index,
               const Topology &topo, CpuClusterParams params,
               const AddressMap &addr_map, Network &network);

    void startup() override;

    void receivePacket(const Packet &pkt) override;

    /** Stop issuing new accesses (the study calls this at kernel end). */
    void quiesce() { quiesced_ = true; }

    std::uint64_t accessesIssued() const { return issued_; }

  private:
    void issueNext();

    NodeId nodeId_;
    CpuClusterParams params_;
    const AddressMap &addrMap_;
    Network &network_;
    Rng rng_;
    /** Network node of each stack, by stack index. */
    std::vector<NodeId> stackNodes_;
    std::uint64_t nextPktId_ = 1;
    std::uint64_t issued_ = 0;
    bool quiesced_ = false;

    Event issueEvent_;
};

} // namespace ena

#endif // ENA_CPU_CPU_CLUSTER_HH
