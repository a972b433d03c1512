#include "mem/hbm_stack.hh"

#include <algorithm>
#include <cmath>

#include "noc/packet.hh"
#include "util/logging.hh"

namespace ena {

HbmStack::HbmStack(Simulation &sim, const std::string &name,
                   double peak_gbs)
    : SimObject(sim, name),
      bytesPerCycle_(peak_gbs / (channels * clockGhz))
{
    ENA_ASSERT(peak_gbs > 0.0, "bad HBM bandwidth");
    channels_.resize(channels);
    for (Channel &ch : channels_) {
        ch.openRow.assign(banksPerChannel, ~std::uint64_t(0));
    }
}

std::uint32_t
HbmStack::channelOf(std::uint64_t addr) const
{
    // Interleave channels at line granularity for bandwidth spreading.
    return static_cast<std::uint32_t>((addr / lineBytes) % channels);
}

std::uint32_t
HbmStack::bankOf(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>((addr / rowBytes) %
                                      banksPerChannel);
}

std::uint64_t
HbmStack::rowOf(std::uint64_t addr) const
{
    return addr / (static_cast<std::uint64_t>(rowBytes) *
                   banksPerChannel * channels);
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

    double access_ns = row_hit ? rowHitNs : rowMissNs;
    Tick access_ticks = static_cast<Tick>(access_ns * tickPerNs);
    double burst_cycles = static_cast<double>(bytes) / bytesPerCycle_;
    Tick burst_ticks = std::max<Tick>(
        1, static_cast<Tick>(
               std::ceil(burst_cycles * clockPeriod(clockGhz))));

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
