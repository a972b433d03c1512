#include "cpu/cpu_cluster.hh"

#include <algorithm>

#include "noc/topology.hh"
#include "util/logging.hh"

namespace ena {

namespace {

constexpr int cores = 16;
constexpr double writeFraction = 0.3;

} // anonymous namespace

CpuCluster::CpuCluster(Simulation &sim, const std::string &name,
                       int index, const Topology &topo,
                       CpuClusterParams params, const AddressMap &addr_map,
                       Network &network)
    : SimObject(sim, name),
      nodeId_(topo.nodeOf(NodeKind::CpuCluster, index)), params_(params),
      addrMap_(addr_map), network_(network), rng_(params.seed),
      stackNodes_(topo.nodesOf(NodeKind::MemStack)),
      issueEvent_([this] { issueNext(); })
{
    ENA_ASSERT(params_.sharedSize >= lineBytes, "shared region too small");
    ENA_ASSERT(addr_map.numStacks() <= static_cast<int>(stackNodes_.size()),
               "address map names stacks the topology lacks");
    network_.attach(nodeId_, this);
}

void
CpuCluster::startup()
{
    // Cluster-level issue rate: cores / accessNsPerCore accesses per ns.
    schedule(issueEvent_, static_cast<Tick>(params_.accessNsPerCore /
                                            cores * tickPerNs));
}

void
CpuCluster::issueNext()
{
    if (quiesced_ ||
        (params_.maxAccesses && issued_ >= params_.maxAccesses))
        return;

    std::uint64_t lines = params_.sharedSize / lineBytes;
    std::uint64_t addr = rng_.below(lines) * lineBytes;
    bool is_write = rng_.chance(writeFraction);

    int home = addrMap_.stackFor(addr);

    Packet pkt;
    pkt.id = (static_cast<std::uint64_t>(nodeId_) << 48) | nextPktId_++;
    pkt.src = nodeId_;
    pkt.dst = stackNodes_[home];
    pkt.bytes = is_write ? lineBytes : headerBytes;
    pkt.addr = addr;
    pkt.isWrite = is_write;
    network_.send(pkt);

    ++issued_;

    // Exponential-ish think time around the configured mean.
    double gap_ns = params_.accessNsPerCore / cores;
    double jitter = 0.5 + rng_.uniform();
    schedule(issueEvent_,
             std::max<Tick>(1, static_cast<Tick>(gap_ns * jitter *
                                                 tickPerNs)));
}

void
CpuCluster::receivePacket(const Packet &pkt)
{
    // Responses complete silently; the cluster models open-loop
    // orchestration traffic rather than a blocking core pipeline.
    ENA_ASSERT(pkt.isResponse, name(), " received a non-response packet");
}

} // namespace ena
