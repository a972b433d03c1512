/**
 * @file
 * The hypothetical monolithic-EHP interconnect of Fig. 7: a flat on-die
 * crossbar with uniform latency and a shared aggregate bandwidth equal
 * to the chiplet fabric's bisection capacity. No TSV hops.
 */

#ifndef ENA_NOC_CROSSBAR_NETWORK_HH
#define ENA_NOC_CROSSBAR_NETWORK_HH

#include "noc/network.hh"

namespace ena {

struct CrossbarParams
{
    std::uint32_t latencyCycles = 6;      ///< uniform traversal latency
    double aggregateBytesPerCycle = 512;  ///< shared fabric capacity
};

class CrossbarNetwork : public Network
{
  public:
    CrossbarNetwork(Simulation &sim, const std::string &name,
                    size_t num_nodes, CrossbarParams params);

    Tick zeroLoadLatency(std::uint32_t bytes) const;

  protected:
    void route(const Packet &pkt) override;

  private:
    CrossbarParams params_;
    /** Aggregate-capacity horizon: the fabric can move
     *  aggregateBytesPerCycle each cycle; excess serializes. */
    Tick busyUntil_ = 0;
};

} // namespace ena

#endif // ENA_NOC_CROSSBAR_NETWORK_HH
