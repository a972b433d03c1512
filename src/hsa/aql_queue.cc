#include "hsa/aql_queue.hh"

#include "util/logging.hh"

namespace ena {

AqlQueue::AqlQueue(Simulation &sim, const std::string &name,
                   AqlQueueParams params)
    : SimObject(sim, name), params_(params)
{
    ENA_ASSERT(params_.ringSlots > 0, "queue needs ring slots");
    ENA_ASSERT(params_.deviceConcurrency > 0,
               "queue needs device concurrency");
}

void
AqlQueue::submit(const AqlPacket &pkt)
{
    if (ring_.size() >= params_.ringSlots)
        ENA_FATAL("AQL ring '", name(), "' overflow (", params_.ringSlots,
                  " slots); the submitter must back-pressure");
    ring_.push_back(pkt);
    // Doorbell: wake the packet processor.
    pump();
}

void
AqlQueue::pump()
{
    // In-order packet consumption, as the AQL spec requires.
    while (!ring_.empty() && running_ < params_.deviceConcurrency) {
        AqlPacket pkt = ring_.front();
        ring_.pop_front();
        launch(pkt);
    }
}

void
AqlQueue::launch(AqlPacket pkt)
{
    ++running_;
    ++dispatched_;
    Tick done = curTick() + params_.dispatchLatency + pkt.kernelTicks;
    eventq().scheduleLambda(done, [this, pkt] {
        --running_;
        if (pkt.completion)
            pkt.completion->decrement();
        pump();
    });
}

} // namespace ena
