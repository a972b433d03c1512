/**
 * @file
 * Top-level owner of one event-driven simulation: the event queue and
 * every SimObject created through it.
 *
 * Every simulation runs serially on its one EventQueue. Parallelism
 * lives one level up: independent simulations (Fig. 7's app x mode
 * runs) execute side by side on the process-wide ThreadPool, each with
 * its own Simulation.
 */

#ifndef ENA_SIM_SIMULATION_HH
#define ENA_SIM_SIMULATION_HH

#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/sim_object.hh"

namespace ena {

class Simulation
{
  public:
    Simulation() = default;

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Construct a SimObject owned by this simulation. The first
     * constructor argument (Simulation &) is supplied automatically.
     * Returns a non-owning pointer valid for the simulation's lifetime.
     */
    template <typename T, typename... Args>
    T *
    create(Args &&...args)
    {
        auto obj = std::make_unique<T>(*this, std::forward<Args>(args)...);
        T *raw = obj.get();
        objects_.push_back(std::move(obj));
        return raw;
    }

    EventQueue &eventq() { return queue_; }
    const EventQueue &eventq() const { return queue_; }

    /** Current simulated time (after run() with a finite limit, exactly
     *  the limit). */
    Tick curTick() const { return queue_.curTick(); }

    /** Run startup() on all objects, in creation order (once). */
    void initAll();

    /**
     * initAll() if needed, then run to completion or @p limit ticks.
     * Returns number of events processed. Traced as a "sim" span, and
     * the events are added to the process-wide "sim.events_processed"
     * counter.
     */
    std::uint64_t run(Tick limit = maxTick);

  private:
    // Destruction runs in reverse declaration order: queue_ dies first
    // and frees only its own lambda events, never a SimObject's; then
    // objects_.
    std::vector<std::unique_ptr<SimObject>> objects_;
    EventQueue queue_;
    bool initDone_ = false;
};

} // namespace ena

#endif // ENA_SIM_SIMULATION_HH
