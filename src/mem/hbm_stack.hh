/**
 * @file
 * Timing model of one in-package 3D DRAM (HBM-class) stack.
 *
 * Channels contend independently; each channel models bank row-buffer
 * state (row hit vs row cycle), data-bus occupancy, and a FIFO service
 * horizon. Aggregate stack bandwidth = channels x bytesPerCycle x clock,
 * configured from the node's provisioned bandwidth.
 */

#ifndef ENA_MEM_HBM_STACK_HH
#define ENA_MEM_HBM_STACK_HH

#include <functional>
#include <vector>

#include "sim/sim_object.hh"

namespace ena {

struct HbmParams
{
    int channels = 8;
    int banksPerChannel = 16;
    double clockGhz = 1.0;
    double bytesPerCycle = 32.0;     ///< per channel data width
    std::uint32_t rowBytes = 2048;
    double rowHitNs = 18.0;          ///< CAS-limited access
    double rowMissNs = 42.0;         ///< precharge+activate+CAS
    std::uint32_t lineBytes = 64;

    /** Peak stack bandwidth in GB/s. */
    double
    peakGbs() const
    {
        return channels * bytesPerCycle * clockGhz;
    }

    /**
     * Parameters for one of @p stacks stacks providing an aggregate
     * @p total_gbs of in-package bandwidth.
     */
    static HbmParams forAggregateBandwidth(double total_gbs, int stacks);
};

class HbmStack : public SimObject
{
  public:
    using Callback = std::function<void()>;

    HbmStack(Simulation &sim, const std::string &name, HbmParams params);

    /**
     * Issue one access; @p done runs at completion time.
     * Addresses map to channels/banks/rows by block interleaving.
     */
    void access(std::uint64_t addr, std::uint32_t bytes, bool is_write,
                Callback done);

    const HbmParams &params() const { return params_; }

    double rowHitRate() const;
    double bytesServed() const { return statBytes_.value(); }

  private:
    struct Channel
    {
        Tick busyUntil = 0;
        std::vector<std::uint64_t> openRow;   ///< per bank
    };

    std::uint32_t channelOf(std::uint64_t addr) const;
    std::uint32_t bankOf(std::uint64_t addr) const;
    std::uint64_t rowOf(std::uint64_t addr) const;

    HbmParams params_;
    std::vector<Channel> channels_;

    StatScalar statReads_;
    StatScalar statWrites_;
    StatScalar statBytes_;
    StatScalar statRowHits_;
    StatScalar statRowMisses_;
    StatDistribution statLatency_;
};

} // namespace ena

#endif // ENA_MEM_HBM_STACK_HH
