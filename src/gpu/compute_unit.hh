/**
 * @file
 * Wavefront-level GPU compute-unit timing model.
 *
 * Each CU holds several wavefronts; every cycle it issues one
 * operation from a ready wavefront (round-robin). Compute ops keep the
 * wavefront busy for their cycle count; memory ops go through the
 * per-CU L1 and, on a miss, to the chiplet's memory port, with a bounded
 * number of outstanding misses per wavefront (the latency-hiding
 * mechanism whose limits make remote-chiplet latency visible in Fig. 7).
 */

#ifndef ENA_GPU_COMPUTE_UNIT_HH
#define ENA_GPU_COMPUTE_UNIT_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "sim/sim_object.hh"
#include "workloads/trace_gen.hh"

namespace ena {

class GpuChiplet;

struct ComputeUnitParams
{
    int maxOutstandingPerWf = 4;
    std::uint64_t memOpsPerWavefront = 300;
};

class ComputeUnit : public SimObject
{
  public:
    ComputeUnit(Simulation &sim, const std::string &name,
                GpuChiplet &chiplet, ComputeUnitParams params);

    /** Install one wavefront's trace; call before startup(). */
    void addWavefront(std::unique_ptr<TraceGenerator> gen);

    /** Invoked once, when the last wavefront retires. */
    void setDoneCallback(std::function<void()> cb) { doneCb_ = std::move(cb); }

    void startup() override;

    /** True when every wavefront has retired its memory-op quota. */
    bool done() const { return doneWavefronts_ == wavefronts_.size(); }

    /** Completion callback (memory response arrived); public for the
     *  chiplet to invoke. */
    void memResponse(int wf_index);

    const Cache &l1() const { return *l1_; }

  private:
    struct Wavefront
    {
        std::unique_ptr<TraceGenerator> gen;
        Tick busyUntil = 0;
        int outstanding = 0;
        std::uint64_t memOpsLeft = 0;
        bool issuedAll = false;
        bool retired = false;
    };

    /** Issue loop: one op per cycle while someone is ready. */
    void tryIssue();

    /** Schedule the issue event (if idle) at the earliest useful tick. */
    void wake(Tick when);

    bool wavefrontReady(const Wavefront &wf) const;
    void issueFrom(Wavefront &wf, int index);
    void checkRetire(Wavefront &wf);

    GpuChiplet &chiplet_;
    ComputeUnitParams params_;
    std::vector<Wavefront> wavefronts_;
    std::unique_ptr<Cache> l1_;
    size_t rrNext_ = 0;
    size_t doneWavefronts_ = 0;
    std::function<void()> doneCb_;

    Event issueEvent_;
};

} // namespace ena

#endif // ENA_GPU_COMPUTE_UNIT_HH
