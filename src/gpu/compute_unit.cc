#include "gpu/compute_unit.hh"

#include <algorithm>

#include "gpu/gpu_chiplet.hh"
#include "sim/simulation.hh"
#include "util/logging.hh"

namespace ena {

namespace {

constexpr CacheParams l1Params = {16ull << 10, lineBytes, 4};
constexpr std::uint32_t l1HitCycles = 4;

} // anonymous namespace

ComputeUnit::ComputeUnit(Simulation &sim, const std::string &name,
                         GpuChiplet &chiplet, ComputeUnitParams params)
    : SimObject(sim, name), chiplet_(chiplet), params_(params),
      l1_(std::make_unique<Cache>(l1Params)),
      issueEvent_([this] { tryIssue(); })
{
    ENA_ASSERT(params_.maxOutstandingPerWf > 0,
               "CU needs outstanding-miss capacity");
}

void
ComputeUnit::addWavefront(std::unique_ptr<TraceGenerator> gen)
{
    Wavefront wf;
    wf.gen = std::move(gen);
    wf.memOpsLeft = params_.memOpsPerWavefront;
    wavefronts_.push_back(std::move(wf));
}

void
ComputeUnit::startup()
{
    if (!wavefronts_.empty())
        wake(curTick());
}

bool
ComputeUnit::wavefrontReady(const Wavefront &wf) const
{
    return !wf.issuedAll && wf.busyUntil <= curTick() &&
           wf.outstanding < params_.maxOutstandingPerWf;
}

void
ComputeUnit::wake(Tick when)
{
    if (issueEvent_.scheduled()) {
        if (issueEvent_.when() <= when)
            return;
        eventq().deschedule(&issueEvent_);
    }
    eventq().schedule(&issueEvent_, std::max(when, curTick()));
}

void
ComputeUnit::tryIssue()
{
    // Round-robin pick of one ready wavefront.
    int picked = -1;
    for (size_t i = 0; i < wavefronts_.size(); ++i) {
        size_t idx = (rrNext_ + i) % wavefronts_.size();
        if (wavefrontReady(wavefronts_[idx])) {
            picked = static_cast<int>(idx);
            break;
        }
    }

    if (picked >= 0) {
        rrNext_ = (picked + 1) % wavefronts_.size();
        issueFrom(wavefronts_[picked], picked);
        // Issue again next cycle.
        wake(curTick() + gpuCycle);
        return;
    }

    // Nothing ready: sleep until the next compute completion (memory
    // responses call wake() themselves).
    Tick next = ~Tick(0);
    for (const Wavefront &wf : wavefronts_) {
        if (!wf.issuedAll && wf.outstanding < params_.maxOutstandingPerWf)
            next = std::min(next, wf.busyUntil);
    }
    if (next != ~Tick(0) && next > curTick())
        wake(next);
}

void
ComputeUnit::issueFrom(Wavefront &wf, int index)
{
    TraceOp op = wf.gen->next();
    if (op.kind == TraceOp::Kind::Compute) {
        wf.busyUntil = curTick() + op.computeCycles * gpuCycle;
        return;
    }

    // Memory operation.
    --wf.memOpsLeft;
    if (wf.memOpsLeft == 0)
        wf.issuedAll = true;

    bool is_write = op.kind == TraceOp::Kind::Store;
    CacheOutcome l1 = l1_->access(op.addr, is_write);
    if (l1.hit) {
        // Short pipeline bubble; no L2 traffic.
        wf.busyUntil = curTick() + l1HitCycles * gpuCycle;
        checkRetire(wf);
        return;
    }

    ++wf.outstanding;
    chiplet_.requestMemory(op.addr, is_write,
                           [this, index] { memResponse(index); });
    // Dirty L1 victims propagate to the L2 as writes (no wavefront
    // stall; accounted as chiplet-internal traffic by the L2 model).
    if (l1.writeback)
        chiplet_.requestMemory(l1.victimAddr, true, [] {});
}

void
ComputeUnit::memResponse(int wf_index)
{
    ENA_ASSERT(wf_index >= 0 &&
                   wf_index < static_cast<int>(wavefronts_.size()),
               "bad wavefront index");
    Wavefront &wf = wavefronts_[wf_index];
    ENA_ASSERT(wf.outstanding > 0, "response without outstanding miss");
    --wf.outstanding;
    checkRetire(wf);
    wake(curTick());
}

void
ComputeUnit::checkRetire(Wavefront &wf)
{
    if (!wf.retired && wf.issuedAll && wf.outstanding == 0) {
        wf.retired = true;
        ++doneWavefronts_;
        if (done() && doneCb_)
            doneCb_();
    }
}

} // namespace ena
