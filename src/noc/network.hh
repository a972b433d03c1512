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
     * Inject a packet at the current tick; the destination endpoint's
     * receivePacket() runs at the computed arrival tick.
     */
    virtual void send(const Packet &pkt) = 0;

    /** Total payload bytes injected. */
    double bytesInjected() const { return statBytes_.value(); }

    /** Total byte-hops traversed (energy proxy). */
    double byteHops() const { return statByteHops_.value(); }

    double packetsSent() const { return statPackets_.value(); }

    /** Mean end-to-end packet latency in nanoseconds. */
    double meanLatencyNs() const { return statLatency_.mean(); }

    /** Mean router hops per packet. */
    double
    meanHops() const
    {
        double n = statPackets_.value();
        return n > 0.0 ? statHops_.value() / n : 0.0;
    }

  protected:
    /**
     * Schedule delivery to the endpoint at @p arrival, sampling the
     * latency from the current tick to @p arrival.
     */
    void scheduleDelivery(const Packet &pkt, Tick arrival);

    /** Record per-packet accounting. */
    void recordPacket(const Packet &pkt, std::uint32_t hops);

    std::vector<NetworkEndpoint *> endpoints_;

    StatScalar statPackets_;
    StatScalar statBytes_;
    StatScalar statHops_;
    StatScalar statByteHops_;
    StatDistribution statLatency_;
};

} // namespace ena

#endif // ENA_NOC_NETWORK_HH
