/**
 * @file
 * One GPU chiplet: compute units, a shared L2, the TSV path to the
 * 3D-stacked local HBM, and the network port to remote stacks.
 *
 * Chiplet i sits under stack i. It takes that stack at construction
 * and reads its own network node and every stack's node from the
 * Topology, so a built chiplet is fully wired. In chiplet mode, L2
 * misses homed on the local stack take the direct vertical (TSV) path;
 * remote misses cross the interposer network. In monolithic mode (the
 * Fig. 7 comparison), every miss uses the flat crossbar, local or not.
 */

#ifndef ENA_GPU_GPU_CHIPLET_HH
#define ENA_GPU_GPU_CHIPLET_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/address_map.hh"
#include "mem/ext_memory.hh"
#include "mem/memory_manager.hh"
#include "mem/cache.hh"
#include "mem/hbm_stack.hh"
#include "noc/network.hh"
#include "sim/sim_object.hh"

namespace ena {

class ComputeUnit;
class Topology;

/** One cycle of the 1 GHz GPU clock, shared by the chiplet and its
 *  CUs. */
constexpr Tick gpuCycle = clockPeriod(1.0);

struct GpuChipletParams
{
    bool monolithic = false;            ///< flat-crossbar mode
};

class GpuChiplet : public SimObject, public NetworkEndpoint
{
  public:
    using Callback = std::function<void()>;

    /** Chiplet @p index of @p topo; @p local_stack is the stack above
     *  it (chiplet mode's fast path). */
    GpuChiplet(Simulation &sim, const std::string &name, int index,
               const Topology &topo, GpuChipletParams params,
               const AddressMap &addr_map, Network &network,
               HbmStack &local_stack);

    /**
     * Enable the two-level memory path: post-L2 accesses consult the
     * memory manager, and pages resident in external memory are
     * serviced by the external network instead of an HBM stack
     * (Section II-B3's software-managed mode, cycle-level).
     */
    void setTwoLevelMemory(MemoryManager *manager,
                           ExternalMemoryNetwork *ext);

    /** CU-side memory request (post-L1). */
    void requestMemory(std::uint64_t addr, bool is_write, Callback done);

    /** Network responses for this chiplet's outstanding requests. */
    void receivePacket(const Packet &pkt) override;

    int index() const { return index_; }
    const Cache &l2() const { return *l2_; }

    /** Post-L2 bytes that stayed on the chiplet / left it. */
    std::uint64_t localBytes() const { return localBytes_; }
    std::uint64_t remoteBytes() const { return remoteBytes_; }

    /** Fraction of post-L2 traffic that left the chiplet. */
    double
    remoteTrafficFraction() const
    {
        std::uint64_t total = localBytes_ + remoteBytes_;
        return total ? static_cast<double>(remoteBytes_) / total : 0.0;
    }

  private:
    /** Send a post-L2 access to its home stack. An empty @p done
     *  posts a dirty-line writeback: its line goes one way, and no
     *  response comes back. */
    void sendToStack(std::uint64_t addr, bool is_write, Callback done);

    int index_;
    NodeId nodeId_;
    GpuChipletParams params_;
    const AddressMap &addrMap_;
    Network &network_;
    HbmStack &localStack_;
    /** Network node of each stack, by stack index. */
    std::vector<NodeId> stackNodes_;
    std::unique_ptr<Cache> l2_;

    MemoryManager *memManager_ = nullptr;
    ExternalMemoryNetwork *extMem_ = nullptr;

    std::uint64_t nextPktId_ = 1;
    std::unordered_map<std::uint64_t, Callback> pending_;

    std::uint64_t localBytes_ = 0;
    std::uint64_t remoteBytes_ = 0;
};

} // namespace ena

#endif // ENA_GPU_GPU_CHIPLET_HH
