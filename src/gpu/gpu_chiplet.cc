#include "gpu/gpu_chiplet.hh"

#include "noc/topology.hh"
#include "util/logging.hh"

namespace ena {

namespace {

constexpr CacheParams l2Params = {2ull << 20, lineBytes, 16};
constexpr std::uint32_t l2HitCycles = 24;
constexpr std::uint32_t tsvCycles = 4;   ///< vertical hop to local stack

} // anonymous namespace

GpuChiplet::GpuChiplet(Simulation &sim, const std::string &name,
                       int index, const Topology &topo,
                       GpuChipletParams params, const AddressMap &addr_map,
                       Network &network, HbmStack &local_stack)
    : SimObject(sim, name), index_(index),
      nodeId_(topo.nodeOf(NodeKind::GpuChiplet, index)), params_(params),
      addrMap_(addr_map), network_(network), localStack_(local_stack),
      stackNodes_(topo.nodesOf(NodeKind::MemStack)),
      l2_(std::make_unique<Cache>(l2Params))
{
    ENA_ASSERT(addr_map.numStacks() <= static_cast<int>(stackNodes_.size()),
               "address map names stacks the topology lacks");
    network_.attach(nodeId_, this);
}

void
GpuChiplet::setTwoLevelMemory(MemoryManager *manager,
                              ExternalMemoryNetwork *ext)
{
    ENA_ASSERT(manager && ext, "two-level path needs both pieces");
    memManager_ = manager;
    extMem_ = ext;
}

void
GpuChiplet::requestMemory(std::uint64_t addr, bool is_write,
                          Callback done)
{
    CacheOutcome l2 = l2_->access(addr, is_write);
    if (l2.hit) {
        eventq().scheduleLambda(
            curTick() + l2HitCycles * gpuCycle, std::move(done));
        return;
    }
    if (memManager_ &&
        memManager_->access(addr, is_write) == MemLevel::External) {
        // Off-package: cross the interposer to an external interface,
        // then the SerDes chain services the request.
        Tick to_edge = 4 * gpuCycle;   // interposer traversal to the I/O
        Callback cb = std::move(done);
        std::uint64_t a = addr;
        bool w = is_write;
        eventq().scheduleLambda(
            curTick() + to_edge,
            [this, a, w, cb = std::move(cb)]() mutable {
                extMem_->access(a, lineBytes, w, std::move(cb));
            });
    } else {
        sendToStack(addr, is_write, std::move(done));
    }
    if (l2.writeback)
        sendToStack(l2.victimAddr, true, {});
}

void
GpuChiplet::sendToStack(std::uint64_t addr, bool is_write, Callback done)
{
    int home = addrMap_.stackFor(addr);
    bool local = home == index_;
    bool posted = !done;

    std::uint32_t req_bytes = is_write ? lineBytes : headerBytes;
    std::uint32_t resp_bytes = posted ? 0 : is_write ? headerBytes : lineBytes;

    if (local) {
        localBytes_ += req_bytes + resp_bytes;
    } else {
        remoteBytes_ += req_bytes + resp_bytes;
    }

    if (local && !params_.monolithic) {
        // Direct vertical path: TSVs up to the stack, access, TSVs down
        // (a posted writeback only goes up).
        Tick tsv = tsvCycles * gpuCycle;
        Callback reply = [] {};
        if (!posted) {
            reply = [this, done = std::move(done), tsv]() mutable {
                eventq().scheduleLambda(curTick() + tsv, std::move(done));
            };
        }
        eventq().scheduleLambda(
            curTick() + tsv,
            [this, addr, is_write, reply = std::move(reply)]() mutable {
                localStack_.access(addr, lineBytes, is_write,
                                   std::move(reply));
            });
        return;
    }

    // Network path (remote stack, or everything in monolithic mode).
    Packet pkt;
    pkt.id = (static_cast<std::uint64_t>(index_) << 48) | nextPktId_++;
    pkt.src = nodeId_;
    pkt.dst = stackNodes_[home];
    pkt.bytes = req_bytes;
    pkt.addr = addr;
    pkt.isWrite = is_write;
    pkt.needsResponse = !posted;
    if (!posted)
        pending_[pkt.id] = std::move(done);
    network_.send(pkt);
}

void
GpuChiplet::receivePacket(const Packet &pkt)
{
    ENA_ASSERT(pkt.isResponse, name(), " received a non-response packet");
    auto it = pending_.find(pkt.id);
    ENA_ASSERT(it != pending_.end(), name(),
               " received response for unknown request ", pkt.id);
    Callback done = std::move(it->second);
    pending_.erase(it);
    done();
}

} // namespace ena
