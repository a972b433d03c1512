/**
 * @file
 * In-order CPU core timing model for serial sections.
 *
 * The EHP pairs its GPUs with "high-performance multi-core CPUs for
 * serial or irregular code sections and legacy applications". This
 * model executes a synthetic serial-section instruction mix on a
 * single-issue in-order pipeline: ALU ops issue back to back, branch
 * mispredictions flush, memory operations go through a private L1 and
 * pay a miss latency. It reports IPC and runtime.
 */

#ifndef ENA_CPU_CPU_CORE_HH
#define ENA_CPU_CPU_CORE_HH

#include <memory>

#include "mem/cache.hh"
#include "sim/sim_object.hh"
#include "util/rng.hh"

namespace ena {

/** Statistical shape of a serial code section. */
struct SerialSectionProfile
{
    double memFraction = 0.25;        ///< loads+stores per instruction
    double branchFraction = 0.15;
    double branchMissRate = 0.05;     ///< of branches
    double spatialLocality = 0.85;    ///< sequential next access
    std::uint64_t workingSetBytes = 8ull << 20;
    double writeFraction = 0.3;
};

struct CpuCoreParams
{
    double clockGhz = 2.5;
    int branchMissPenalty = 14;       ///< cycles
    int l1HitCycles = 3;
    int memLatencyCycles = 180;       ///< L1 miss to in-package DRAM
    CacheParams l1 = {32ull << 10, 64, 8, ReplPolicy::Lru};
};

class CpuCore : public SimObject
{
  public:
    CpuCore(Simulation &sim, const std::string &name,
            CpuCoreParams params, SerialSectionProfile profile,
            std::uint64_t seed = 1);

    /** Run @p instructions instructions; call before sim.run(). */
    void execute(std::uint64_t instructions);

    bool done() const { return remaining_ == 0 && started_; }

    /** Instructions per cycle achieved so far. */
    double ipc() const;

    /** Effective MIPS at the configured clock. */
    double
    mips() const
    {
        return ipc() * params_.clockGhz * 1000.0;
    }

    std::uint64_t instructionsRetired() const { return retired_; }
    const Cache &l1() const { return *l1_; }

  private:
    Tick cycle() const { return clockPeriod(params_.clockGhz); }

    /** Retire a batch of instructions, then reschedule. */
    void step();

    std::uint64_t nextAddress();

    CpuCoreParams params_;
    SerialSectionProfile profile_;
    Rng rng_;
    std::unique_ptr<Cache> l1_;

    std::uint64_t remaining_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t cursor_ = 0;
    bool started_ = false;

    EventFunctionWrapper stepEvent_;
    StatScalar statRetired_;
    StatScalar statBranchMisses_;
    StatScalar statL1Misses_;
};

} // namespace ena

#endif // ENA_CPU_CPU_CORE_HH
