/**
 * @file
 * Synthetic per-wavefront instruction/address trace generation.
 *
 * The paper drives its cycle-level (gem5 APU) simulations with the proxy
 * applications themselves; we do not have those binaries or an ISA, so
 * each application is represented by a statistically equivalent stream:
 * compute bursts interleaved with memory accesses whose spatial locality,
 * read/write mix, working-set size, and sharing degree come from the
 * application's KernelProfile. This preserves the properties Fig. 7
 * depends on: traffic volume, locality (cache hit rates), cross-chiplet
 * sharing, and memory-level parallelism.
 */

#ifndef ENA_WORKLOADS_TRACE_GEN_HH
#define ENA_WORKLOADS_TRACE_GEN_HH

#include <cstdint>

#include "util/rng.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** One abstract wavefront instruction. */
struct TraceOp
{
    enum class Kind : std::uint8_t { Compute, Load, Store };

    Kind kind = Kind::Compute;
    /** Busy cycles for Compute ops. */
    std::uint32_t computeCycles = 0;
    /** Byte address for memory ops (already coalesced per wavefront). */
    std::uint64_t addr = 0;
    /** Access size in bytes for memory ops. */
    std::uint32_t size = 0;
};

/** Address ranges one wavefront's accesses are drawn from. */
struct StreamLayout
{
    std::uint64_t privateBase = 0;  ///< this wavefront's streaming region
    std::uint64_t privateSize = 0;
    std::uint64_t sharedBase = 0;   ///< region shared across all chiplets
    std::uint64_t sharedSize = 0;
};

/**
 * Stateful generator for one wavefront's dynamic instruction stream.
 * Deterministic for a given (profile, layout, seed).
 */
class TraceGenerator
{
  public:
    static constexpr std::uint32_t accessBytes = 64;

    TraceGenerator(const KernelProfile &profile, const StreamLayout &layout,
                   std::uint64_t seed);

    /** Produce the next operation. */
    TraceOp next();

  private:
    std::uint64_t pickAddress();

    const KernelProfile &profile_;
    StreamLayout layout_;
    Rng rng_;

    std::uint64_t cursorPrivate_;
    std::uint64_t cursorShared_;
    /** Compute cycles owed before the next memory access. */
    double computeDebt_ = 0.0;
};

} // namespace ena

#endif // ENA_WORKLOADS_TRACE_GEN_HH
