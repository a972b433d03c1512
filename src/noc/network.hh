/**
 * @file
 * Abstract chiplet interconnect. Concrete implementations:
 * InterposerNetwork (the proposed multi-chiplet EHP) and
 * CrossbarNetwork (the hypothetical monolithic EHP of Fig. 7).
 */

#ifndef ENA_NOC_NETWORK_HH
#define ENA_NOC_NETWORK_HH

#include <vector>

#include "noc/packet.hh"
#include "sim/sim_object.hh"

namespace ena {

/** One cycle of the 1 GHz clock every on-package fabric model runs
 *  on. */
constexpr Tick fabricCycle = clockPeriod(1.0);

/** Anything that can receive packets from a network. */
class NetworkEndpoint
{
  public:
    virtual ~NetworkEndpoint() = default;

    /** Called at the packet's arrival tick. */
    virtual void receivePacket(const Packet &pkt) = 0;
};

class Network : public SimObject
{
  public:
    Network(Simulation &sim, const std::string &name, size_t num_nodes);

    /** Attach the endpoint object for node @p id. */
    void attach(NodeId id, NetworkEndpoint *ep);

    /**
     * Inject a packet at the current tick, which becomes its
     * injectTick; the destination endpoint's receivePacket() runs at
     * the computed arrival tick.
     */
    void send(Packet pkt);

    /** Total payload bytes injected. */
    std::uint64_t bytesInjected() const { return bytes_; }

    /** Total byte-hops traversed (energy proxy). */
    std::uint64_t byteHops() const { return byteHops_; }

    std::uint64_t packetsSent() const { return packets_; }

    /** Mean packet latency in nanoseconds, from send() to delivery. */
    double
    meanLatencyNs() const
    {
        return packets_ ? latencySumNs_ / packets_ : 0.0;
    }

    /** Mean router hops per packet. */
    double
    meanHops() const
    {
        return packets_ ? static_cast<double>(hops_) / packets_ : 0.0;
    }

  protected:
    /** Carry @p pkt, just stamped by send(), on to deliver(). */
    virtual void route(const Packet &pkt) = 0;

    /**
     * Count @p pkt and its @p hops, and schedule its delivery to the
     * endpoint at @p arrival; its latency runs from pkt.injectTick.
     */
    void deliver(const Packet &pkt, std::uint32_t hops, Tick arrival);

  private:
    std::vector<NetworkEndpoint *> endpoints_;
    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t hops_ = 0;
    std::uint64_t byteHops_ = 0;
    double latencySumNs_ = 0.0;
};

} // namespace ena

#endif // ENA_NOC_NETWORK_HH
