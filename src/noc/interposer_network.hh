/**
 * @file
 * The chiplet-mode interconnect: packets descend from the source chiplet
 * to its interposer router through TSVs, traverse router-to-router links
 * with per-link serialization and contention, and ascend through TSVs to
 * the destination chiplet/stack — the two extra vertical hops the paper
 * quantifies in Fig. 7.
 *
 * Contention model: each directed link keeps a busy-until horizon; a
 * packet's hop departs at max(now, busyUntil) and occupies the link for
 * its serialization time. This "virtual circuit" walk computes the
 * arrival tick at injection, which is accurate for the open-loop traffic
 * levels of the Fig. 7 study while keeping event counts low.
 */

#ifndef ENA_NOC_INTERPOSER_NETWORK_HH
#define ENA_NOC_INTERPOSER_NETWORK_HH

#include <map>
#include <utility>

#include "noc/network.hh"
#include "noc/topology.hh"

namespace ena {

/** Interposer latencies in fabric cycles; DetailedNetwork models the
 *  same interposer. */
constexpr std::uint32_t interposerRouterCycles = 2; ///< router pipeline
constexpr std::uint32_t interposerLinkCycles = 1;   ///< link propagation
constexpr std::uint32_t interposerTsvCycles = 1;    ///< one TSV transition

/** Width of the interposer fabric. */
struct InterposerParams
{
    std::uint32_t linkBytesPerCycle = 256; ///< link width (wide
                                           ///< interposer paths)
};

/** Ticks a packet of @p bytes holds an interposer link that carries
 *  @p link_bytes_per_cycle a fabric cycle; at least one. */
Tick linkSerialization(std::uint32_t bytes,
                       std::uint32_t link_bytes_per_cycle);

class InterposerNetwork : public Network
{
  public:
    InterposerNetwork(Simulation &sim, const std::string &name,
                      const Topology &topo, InterposerParams params);

    /** Zero-load latency between two nodes (for tests/inspection). */
    Tick zeroLoadLatency(NodeId src, NodeId dst,
                         std::uint32_t bytes) const;

    const Topology &topology() const { return topo_; }

  protected:
    void route(const Packet &pkt) override;

  private:
    const Topology &topo_;
    InterposerParams params_;

    /** busy-until per directed link (from,to). */
    std::map<std::pair<std::uint32_t, std::uint32_t>, Tick> linkBusy_;
};

} // namespace ena

#endif // ENA_NOC_INTERPOSER_NETWORK_HH
