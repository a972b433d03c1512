/**
 * @file
 * Kernel dispatcher: carves the synthetic kernel into wavefronts across
 * all compute units and reports completion time, playing the role of the
 * HSA queue/dispatch path in the real system.
 *
 * Address layout: the shared region starts at address 0, and each
 * chiplet's private arena lies above 1 GiB, one 8 GiB stride apiece.
 */

#ifndef ENA_GPU_DISPATCHER_HH
#define ENA_GPU_DISPATCHER_HH

#include <vector>

#include "gpu/compute_unit.hh"
#include "sim/sim_object.hh"
#include "workloads/kernel_profile.hh"
#include "workloads/trace_gen.hh"

namespace ena {

struct DispatchParams
{
    int wavefrontsPerCu = 8;
    /** Bytes of private streaming region per wavefront. */
    std::uint64_t privateBytesPerWf = 1ull << 20;
    /** Size of the shared (cross-chiplet) region at address 0. */
    std::uint64_t sharedBytes = 64ull << 20;
    std::uint64_t seed = 12345;
};

class Dispatcher : public SimObject
{
  public:
    Dispatcher(Simulation &sim, const std::string &name,
               const KernelProfile &profile, DispatchParams params);

    /**
     * Populate @p cu with this dispatcher's wavefronts. @p chiplet_index
     * selects the private-arena slice so the study can place each
     * chiplet's pages near its stack.
     */
    void assign(ComputeUnit &cu, int chiplet_index);

    /** Start-of-private-arena for one chiplet (for AddressMap regions). */
    std::uint64_t chipletArenaBase(int chiplet_index) const;
    std::uint64_t chipletArenaSize(int chiplet_index) const;

    bool allDone() const { return doneCus_ == cus_ && cus_ > 0; }
    Tick finishTick() const { return finishTick_; }

  private:
    void cuDone();

    const KernelProfile &profile_;
    DispatchParams params_;
    int cus_ = 0;
    int doneCus_ = 0;
    std::uint64_t nextWfId_ = 0;
    std::vector<int> wfPerChiplet_;
    Tick finishTick_ = 0;
};

} // namespace ena

#endif // ENA_GPU_DISPATCHER_HH
