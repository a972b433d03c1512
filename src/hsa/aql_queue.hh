/**
 * @file
 * User-mode AQL dispatch queue model.
 *
 * HSA agents dispatch work by writing Architected Queuing Language
 * packets into user-mode ring buffers and ringing a doorbell; the
 * packet processor launches kernels without driver involvement. The
 * paper's HPC-programmability argument leans on this path being cheap
 * ("task offloads by both CPU and GPU to each other").
 *
 * The model: a bounded ring of dispatch packets consumed in order by a
 * packet processor with a configurable per-dispatch latency; kernels
 * execute for their given duration (several may be in flight up to the
 * device's concurrency), and each completion decrements the packet's
 * signal.
 */

#ifndef ENA_HSA_AQL_QUEUE_HH
#define ENA_HSA_AQL_QUEUE_HH

#include <cstdint>
#include <deque>

#include "hsa/signal.hh"
#include "sim/sim_object.hh"

namespace ena {

/** One AQL kernel-dispatch packet. */
struct AqlPacket
{
    std::uint64_t id = 0;
    Tick kernelTicks = 0;          ///< execution duration
    HsaSignal *completion = nullptr;
};

struct AqlQueueParams
{
    size_t ringSlots = 64;
    /** Packet-processor dispatch latency (user-mode path, ~200 ns). */
    Tick dispatchLatency = 200 * tickPerNs;
    /** Concurrent kernels the device executes. */
    int deviceConcurrency = 4;
};

class AqlQueue : public SimObject
{
  public:
    AqlQueue(Simulation &sim, const std::string &name,
             AqlQueueParams params);

    /**
     * Enqueue a packet and ring the doorbell; fatal() when the ring is
     * full (back-pressure is the caller's job, as in real HSA).
     */
    void submit(const AqlPacket &pkt);

    /** Packets currently queued (not yet dispatched). */
    size_t depth() const { return ring_.size(); }

    bool
    idle() const
    {
        return ring_.empty() && running_ == 0;
    }

    std::uint64_t packetsDispatched() const { return dispatched_; }

  private:
    /** Try to launch the head packet. */
    void pump();
    void launch(AqlPacket pkt);

    AqlQueueParams params_;
    std::deque<AqlPacket> ring_;
    int running_ = 0;
    std::uint64_t dispatched_ = 0;
};

} // namespace ena

#endif // ENA_HSA_AQL_QUEUE_HH
