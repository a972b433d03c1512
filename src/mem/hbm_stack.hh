/**
 * @file
 * Timing model of one in-package 3D DRAM (HBM-class) stack.
 *
 * Channels contend independently; each channel models bank row-buffer
 * state (row hit vs row cycle), data-bus occupancy, and a FIFO service
 * horizon. Aggregate stack bandwidth = channels x bytesPerCycle x clock,
 * configured from the node's provisioned bandwidth; the geometry and
 * the DRAM timings are fixed.
 */

#ifndef ENA_MEM_HBM_STACK_HH
#define ENA_MEM_HBM_STACK_HH

#include <functional>
#include <vector>

#include "sim/sim_object.hh"

namespace ena {

class HbmStack : public SimObject
{
  public:
    using Callback = std::function<void()>;

    static constexpr int channels = 8;
    static constexpr int banksPerChannel = 16;
    static constexpr double clockGhz = 1.0;
    static constexpr std::uint32_t rowBytes = 2048;
    static constexpr double rowHitNs = 18.0;    ///< CAS-limited access
    static constexpr double rowMissNs = 42.0;   ///< precharge+activate+CAS

    /** A stack of @p peak_gbs GB/s, split evenly over its channels. */
    HbmStack(Simulation &sim, const std::string &name, double peak_gbs);

    /**
     * Issue one access; @p done runs at completion time.
     * Addresses map to channels/banks/rows by block interleaving.
     * Reads and writes take the same time.
     */
    void access(std::uint64_t addr, std::uint32_t bytes, bool is_write,
                Callback done);

    /** Peak stack bandwidth in GB/s. */
    double
    peakGbs() const
    {
        return channels * bytesPerCycle_ * clockGhz;
    }

    double rowHitRate() const;
    std::uint64_t bytesServed() const { return bytes_; }

  private:
    struct Channel
    {
        Tick busyUntil = 0;
        std::vector<std::uint64_t> openRow;   ///< per bank
    };

    std::uint32_t channelOf(std::uint64_t addr) const;
    std::uint32_t bankOf(std::uint64_t addr) const;
    std::uint64_t rowOf(std::uint64_t addr) const;

    double bytesPerCycle_;   ///< per channel data width
    std::vector<Channel> channels_;

    std::uint64_t bytes_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace ena

#endif // ENA_MEM_HBM_STACK_HH
