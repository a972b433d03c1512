#include "sim/simulation.hh"

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

namespace ena {

void
Simulation::initAll()
{
    if (initDone_)
        return;
    initDone_ = true;
    // Index iteration also reaches objects created during startup().
    for (size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->startup();
}

std::uint64_t
Simulation::run(Tick limit)
{
    ENA_SPAN("sim", "run");
    initAll();
    std::uint64_t events = queue_.run(limit);

    // Events executed across all cycle-level simulations.
    static telemetry::Counter &processed =
        telemetry::counter("sim.events_processed");
    processed.add(events);
    return events;
}

} // namespace ena
