/**
 * @file
 * Base class for simulated hardware components.
 *
 * A SimObject has a hierarchical name ("ehp.gpu3.cu12"), access to its
 * Simulation's event queue, and a startup() hook called before the
 * first event fires. Components count what they report in plain
 * members behind accessors.
 */

#ifndef ENA_SIM_SIM_OBJECT_HH
#define ENA_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event.hh"
#include "util/units.hh"

namespace ena {

class Simulation;

class SimObject
{
  public:
    SimObject(Simulation &sim, std::string name);
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Hierarchical instance name. */
    const std::string &name() const { return name_; }

    /** Kick-off pass, after all objects are constructed: schedule
     *  initial events. */
    virtual void startup() {}

    /** Convenience accessors for the simulation's queue and clock. */
    EventQueue &eventq() const;
    Tick curTick() const;

    /** Schedule relative to the current tick. */
    void schedule(Event &ev, Tick delay);

  private:
    Simulation &sim_;
    std::string name_;
};

} // namespace ena

#endif // ENA_SIM_SIM_OBJECT_HH
