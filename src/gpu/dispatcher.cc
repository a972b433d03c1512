#include "gpu/dispatcher.hh"

#include "util/logging.hh"

namespace ena {

namespace {

/** The shared region starts at 0, the private arenas at 1 GiB. */
constexpr std::uint64_t sharedBase = 0;
constexpr std::uint64_t privateBase = 1ull << 30;

/** Generous per-chiplet arena (supports many wavefronts). */
constexpr std::uint64_t arenaStride = 8ull << 30;

} // anonymous namespace

Dispatcher::Dispatcher(Simulation &sim, const std::string &name,
                       const KernelProfile &profile, DispatchParams params)
    : SimObject(sim, name), profile_(profile), params_(params)
{
    ENA_ASSERT(params_.privateBytesPerWf >= TraceGenerator::accessBytes,
               "private region too small");
}

std::uint64_t
Dispatcher::chipletArenaBase(int chiplet_index) const
{
    return privateBase + arenaStride * chiplet_index;
}

std::uint64_t
Dispatcher::chipletArenaSize(int) const
{
    return arenaStride;
}

void
Dispatcher::assign(ComputeUnit &cu, int chiplet_index)
{
    if (wfPerChiplet_.size() <= static_cast<size_t>(chiplet_index))
        wfPerChiplet_.resize(chiplet_index + 1, 0);

    for (int w = 0; w < params_.wavefrontsPerCu; ++w) {
        int wf_in_chiplet = wfPerChiplet_[chiplet_index]++;
        StreamLayout layout;
        layout.privateBase =
            chipletArenaBase(chiplet_index) +
            static_cast<std::uint64_t>(wf_in_chiplet) *
                params_.privateBytesPerWf;
        ENA_ASSERT(layout.privateBase + params_.privateBytesPerWf <=
                       chipletArenaBase(chiplet_index) + arenaStride,
                   "chiplet arena overflow: too many wavefronts");
        layout.privateSize = params_.privateBytesPerWf;
        layout.sharedBase = sharedBase;
        layout.sharedSize = params_.sharedBytes;
        cu.addWavefront(std::make_unique<TraceGenerator>(
            profile_, layout, params_.seed + nextWfId_++));
    }
    ++cus_;
    cu.setDoneCallback([this] { cuDone(); });
}

void
Dispatcher::cuDone()
{
    ++doneCus_;
    if (doneCus_ == cus_)
        finishTick_ = curTick();
}

} // namespace ena
