/**
 * @file
 * Detailed interposer network: hop-by-hop router model with bounded
 * per-input-port buffers, credit-style backpressure, virtual
 * cut-through switching, and deadlock-free dimension-ordered (XY)
 * routing on the 2 x C interposer mesh.
 *
 * This is the Garnet-class counterpart to InterposerNetwork's
 * virtual-circuit approximation: the same topology, latencies and link
 * model (DetailedParams extends InterposerParams, and both serialize a
 * packet with linkSerialization()), but contention resolves hop by hop
 * with finite buffering (one buffer per input port — the structure XY
 * routing needs for deadlock freedom). The ablation bench compares the
 * two models, validating that the cheaper one is adequate at the Fig. 7
 * study's traffic levels.
 */

#ifndef ENA_NOC_DETAILED_NETWORK_HH
#define ENA_NOC_DETAILED_NETWORK_HH

#include <deque>
#include <map>

#include "noc/interposer_network.hh"
#include "noc/network.hh"
#include "noc/topology.hh"

namespace ena {

/** InterposerNetwork's fabric, with the routers' input buffers. */
struct DetailedParams : InterposerParams
{
    /** Input-buffer capacity per (router, input port), in packets. */
    int bufferPackets = 8;
};

class DetailedNetwork : public Network
{
  public:
    DetailedNetwork(Simulation &sim, const std::string &name,
                    const Topology &topo, DetailedParams params);

    /** XY next hop (column first, then row); deadlock-free on the
     *  mesh. */
    std::uint32_t nextHopXY(std::uint32_t at, std::uint32_t to) const;

    std::uint64_t bufferStalls() const { return bufferStalls_; }

    const Topology &topology() const { return topo_; }

  protected:
    void route(const Packet &pkt) override;

  private:
    /** (router, upstream router or injectPort). */
    using PortKey = std::pair<std::uint32_t, std::uint32_t>;

    struct Waiting
    {
        Packet pkt;
        std::uint32_t atRouter;   ///< where the packet currently sits
        std::uint32_t inPort;     ///< its input port there
        std::uint32_t hops;
    };

    /** Packet holds a slot of (r, in_port) and enters the pipeline. */
    void arriveAtRouter(Packet pkt, std::uint32_t r,
                        std::uint32_t in_port, std::uint32_t hops);

    /** Pipeline done: leave toward the next hop or the endpoint. */
    void departRouter(Packet pkt, std::uint32_t r,
                      std::uint32_t in_port, std::uint32_t hops);

    /** Attempt the r -> nh link; parks on the downstream input port
     *  when its buffer is full. */
    void tryTraverse(Packet pkt, std::uint32_t r, std::uint32_t in_port,
                     std::uint32_t nh, std::uint32_t hops);

    /** Free one slot of (r, in_port) and retry a parked packet. */
    void releaseSlot(std::uint32_t r, std::uint32_t in_port);

    const Topology &topo_;
    DetailedParams params_;

    std::map<PortKey, int> occ_;
    std::map<PortKey, std::deque<Waiting>> waiting_;
    std::map<std::pair<std::uint32_t, std::uint32_t>, Tick> linkBusy_;

    /** Hops parked on full downstream buffers. */
    std::uint64_t bufferStalls_ = 0;
};

} // namespace ena

#endif // ENA_NOC_DETAILED_NETWORK_HH
