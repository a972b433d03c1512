#include "mem/hbm_stack.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ena {

HbmParams
HbmParams::forAggregateBandwidth(double total_gbs, int stacks)
{
    ENA_ASSERT(total_gbs > 0.0 && stacks > 0, "bad HBM sizing");
    HbmParams p;
    double per_stack = total_gbs / stacks;
    p.bytesPerCycle = per_stack / (p.channels * p.clockGhz);
    return p;
}

HbmStack::HbmStack(Simulation &sim, const std::string &name,
                   HbmParams params)
    : SimObject(sim, name), params_(params)
{
    ENA_ASSERT(params_.channels > 0 && params_.banksPerChannel > 0,
               "bad HBM geometry");
    channels_.resize(params_.channels);
    for (Channel &ch : channels_) {
        ch.openRow.assign(params_.banksPerChannel, ~std::uint64_t(0));
    }
}

std::uint32_t
HbmStack::channelOf(std::uint64_t addr) const
{
    // Interleave channels at line granularity for bandwidth spreading.
    return static_cast<std::uint32_t>((addr / params_.lineBytes) %
                                      params_.channels);
}

std::uint32_t
HbmStack::bankOf(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>(
        (addr / params_.rowBytes) % params_.banksPerChannel);
}

std::uint64_t
HbmStack::rowOf(std::uint64_t addr) const
{
    return addr / (static_cast<std::uint64_t>(params_.rowBytes) *
                   params_.banksPerChannel * params_.channels);
}

void
HbmStack::access(std::uint64_t addr, std::uint32_t bytes,
                 bool /* is_write */, Callback done)
{
    ENA_ASSERT(done, "HBM access needs a completion callback");
    Channel &ch = channels_[channelOf(addr)];
    std::uint32_t bank = bankOf(addr);
    std::uint64_t row = rowOf(addr);

    bool row_hit = ch.openRow[bank] == row;
    ch.openRow[bank] = row;
    if (row_hit)
        ++rowHits_;
    else
        ++rowMisses_;

    double access_ns = row_hit ? params_.rowHitNs : params_.rowMissNs;
    Tick access_ticks = static_cast<Tick>(access_ns * tickPerNs);
    double burst_cycles =
        static_cast<double>(bytes) / params_.bytesPerCycle;
    Tick burst_ticks = std::max<Tick>(
        1, static_cast<Tick>(
               std::ceil(burst_cycles * clockPeriod(params_.clockGhz))));

    Tick start = std::max(curTick(), ch.busyUntil);
    Tick finish = start + access_ticks + burst_ticks;
    // The data bus is occupied for the burst; the bank-access time
    // overlaps with other banks' work, so only the burst serializes.
    ch.busyUntil = start + burst_ticks;

    bytes_ += bytes;
    eventq().scheduleLambda(finish, std::move(done));
}

double
HbmStack::rowHitRate() const
{
    std::uint64_t total = rowHits_ + rowMisses_;
    return total ? static_cast<double>(rowHits_) / total : 0.0;
}

} // namespace ena
