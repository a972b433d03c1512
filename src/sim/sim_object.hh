/**
 * @file
 * Base class for simulated hardware components.
 *
 * A SimObject has a hierarchical name ("ehp.gpu3.cu12"), access to its
 * Simulation's event queue and stat registry, and init()/startup() hooks
 * called before the first event fires.
 */

#ifndef ENA_SIM_SIM_OBJECT_HH
#define ENA_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event.hh"
#include "sim/stats.hh"
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

    /** Wire-up pass: runs after all objects are constructed. */
    virtual void init() {}

    /** Kick-off pass: schedule initial events. */
    virtual void startup() {}

    /** The owning simulation. */
    Simulation &sim() const { return sim_; }

    /**
     * Event-queue domain this object belongs to (captured from the
     * simulation's build domain at construction; 0 in the plain serial
     * kernel). The object's events run only on this domain's queue.
     */
    int domain() const { return domain_; }

    /** Convenience accessors; eventq()/curTick() are this object's
     *  domain queue and its clock. */
    EventQueue &eventq() const;
    Tick curTick() const;

    /** Schedule relative to the current tick. */
    void schedule(Event &ev, Tick delay);

  private:
    Simulation &sim_;
    std::string name_;
    int domain_;
};

} // namespace ena

#endif // ENA_SIM_SIM_OBJECT_HH
