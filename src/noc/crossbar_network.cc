#include "noc/crossbar_network.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ena {

CrossbarNetwork::CrossbarNetwork(Simulation &sim, const std::string &name,
                                 size_t num_nodes, CrossbarParams params)
    : Network(sim, name, num_nodes), params_(params)
{
    ENA_ASSERT(params_.aggregateBytesPerCycle > 0.0,
               "zero crossbar capacity");
}

void
CrossbarNetwork::route(const Packet &pkt)
{
    // Occupancy charged against the shared aggregate capacity.
    double cycles_needed =
        static_cast<double>(pkt.bytes) / params_.aggregateBytesPerCycle;
    Tick occupancy =
        std::max<Tick>(1, static_cast<Tick>(
                              std::ceil(cycles_needed * fabricCycle)));

    Tick depart = std::max(curTick(), busyUntil_);
    busyUntil_ = depart + occupancy;

    Tick arrival = depart + occupancy + params_.latencyCycles * fabricCycle;
    deliver(pkt, 1, arrival);
}

Tick
CrossbarNetwork::zeroLoadLatency(std::uint32_t bytes) const
{
    double cycles_needed =
        static_cast<double>(bytes) / params_.aggregateBytesPerCycle;
    Tick occupancy =
        std::max<Tick>(1, static_cast<Tick>(
                              std::ceil(cycles_needed * fabricCycle)));
    return occupancy + params_.latencyCycles * fabricCycle;
}

} // namespace ena
