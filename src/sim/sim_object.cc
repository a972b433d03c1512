#include "sim/sim_object.hh"

#include "sim/simulation.hh"
#include "util/logging.hh"

namespace ena {

SimObject::SimObject(Simulation &sim, std::string name)
    : sim_(sim), name_(std::move(name)), domain_(sim.buildDomain())
{
    ENA_ASSERT(!name_.empty(), "SimObject requires a name");
}

EventQueue &
SimObject::eventq() const
{
    return sim_.eventq(domain_);
}

Tick
SimObject::curTick() const
{
    return eventq().curTick();
}

void
SimObject::schedule(Event &ev, Tick delay)
{
    eventq().schedule(&ev, curTick() + delay);
}

} // namespace ena
