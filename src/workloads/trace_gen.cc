#include "workloads/trace_gen.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ena {

TraceGenerator::TraceGenerator(const KernelProfile &profile,
                               const StreamLayout &layout,
                               std::uint64_t seed)
    : profile_(profile), layout_(layout), rng_(seed)
{
    ENA_ASSERT(layout.privateSize >= accessBytes,
               "private region too small");
    cursorPrivate_ =
        layout.privateBase +
        (rng_.below(layout.privateSize / accessBytes)) * accessBytes;
    cursorShared_ =
        layout.sharedSize >= accessBytes
            ? layout.sharedBase +
                  rng_.below(layout.sharedSize / accessBytes) * accessBytes
            : layout.sharedBase;
    // Start each wavefront at a random phase of its compute/memory
    // pattern so concurrent wavefronts do not issue in lockstep (real
    // dispatch naturally decorrelates them).
    computeDebt_ = rng_.uniform() * profile_.computePerMemByte *
                   static_cast<double>(accessBytes);
}

std::uint64_t
TraceGenerator::pickAddress()
{
    bool shared = layout_.sharedSize >= accessBytes &&
                  rng_.chance(profile_.sharedFraction);

    std::uint64_t base = shared ? layout_.sharedBase : layout_.privateBase;
    std::uint64_t size = shared ? layout_.sharedSize : layout_.privateSize;
    std::uint64_t &cursor = shared ? cursorShared_ : cursorPrivate_;

    if (rng_.chance(profile_.spatialLocality)) {
        cursor += accessBytes;
        if (cursor + accessBytes > base + size)
            cursor = base;
    } else {
        cursor = base + rng_.below(size / accessBytes) * accessBytes;
    }
    return cursor;
}

TraceOp
TraceGenerator::next()
{
    // Alternate compute bursts and memory accesses so that the long-run
    // ratio matches computePerMemByte * accessBytes compute cycles per
    // access. Fractional debts accumulate so small ratios still produce
    // occasional compute ops.
    double per_access =
        profile_.computePerMemByte * static_cast<double>(accessBytes);

    if (computeDebt_ >= 1.0) {
        TraceOp op;
        op.kind = TraceOp::Kind::Compute;
        // Emit the debt in bursts of up to 64 cycles so the CU model can
        // interleave wavefronts at a realistic granularity.
        auto cycles = static_cast<std::uint32_t>(
            std::min(computeDebt_, 64.0));
        op.computeCycles = std::max(1u, cycles);
        computeDebt_ -= op.computeCycles;
        return op;
    }

    computeDebt_ += per_access;
    TraceOp op;
    op.kind = rng_.chance(profile_.writeFraction) ? TraceOp::Kind::Store
                                                  : TraceOp::Kind::Load;
    op.addr = pickAddress();
    op.size = accessBytes;
    return op;
}

} // namespace ena
