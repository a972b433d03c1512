/**
 * @file
 * Unit tests for the HBM stack timing model: row-buffer behaviour,
 * channel contention, bandwidth sizing, and completion callbacks.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "mem/hbm_stack.hh"
#include "noc/packet.hh"
#include "sim/simulation.hh"

using namespace ena;

namespace {

struct StackFixture : testing::Test
{
    Simulation sim;
    HbmStack *stack = sim.create<HbmStack>("hbm", 750.0 / 8);

    void SetUp() override { sim.initAll(); }

    /** Issue one access and run to completion; returns latency ns. */
    double
    timedAccess(std::uint64_t addr, bool write = false)
    {
        Tick start = sim.curTick();
        Tick done_at = 0;
        stack->access(addr, 64, write,
                      [&] { done_at = sim.curTick(); });
        sim.run();
        return static_cast<double>(done_at - start) / tickPerNs;
    }
};

} // anonymous namespace

TEST_F(StackFixture, BandwidthSizing)
{
    // 750 GB/s over 8 stacks = 93.75 GB/s per stack.
    EXPECT_NEAR(stack->peakGbs(), 93.75, 0.01);
}

TEST_F(StackFixture, CallbackFiresAfterAccessLatency)
{
    double ns = timedAccess(0);
    // Cold access: row miss latency plus burst.
    EXPECT_GE(ns, HbmStack::rowMissNs);
    EXPECT_LT(ns, HbmStack::rowMissNs + 20.0);
}

TEST_F(StackFixture, RowHitIsFasterThanRowMiss)
{
    double first = timedAccess(0);
    double second = timedAccess(lineBytes * HbmStack::channels);
    // Same channel (line interleave wraps), same bank, same row ->
    // row hit.
    EXPECT_LT(second, first);
    EXPECT_GT(stack->rowHitRate(), 0.0);
}

TEST_F(StackFixture, DifferentRowsConflict)
{
    std::uint64_t row_stride =
        static_cast<std::uint64_t>(HbmStack::rowBytes) *
        HbmStack::banksPerChannel * HbmStack::channels;
    timedAccess(0);
    double other_row = timedAccess(row_stride);
    EXPECT_GE(other_row, HbmStack::rowMissNs);
    EXPECT_DOUBLE_EQ(stack->rowHitRate(), 0.0);
}

TEST_F(StackFixture, ChannelContentionSerializesBursts)
{
    // Many simultaneous accesses to one channel: completion times must
    // spread by at least the burst occupancy.
    const int n = 16;
    std::vector<Tick> done(n, 0);
    for (int i = 0; i < n; ++i) {
        // Same channel: stride by channels * lineBytes.
        std::uint64_t addr =
            static_cast<std::uint64_t>(i) * lineBytes * HbmStack::channels;
        stack->access(addr, 64, false,
                      [&done, i, this] { done[i] = sim.curTick(); });
    }
    sim.run();
    std::sort(done.begin(), done.end());
    // 64 B at one channel's share of the stack's bandwidth.
    double burst_ns = 64.0 * HbmStack::channels / stack->peakGbs();
    double span = static_cast<double>(done.back() - done.front()) /
                  tickPerNs;
    EXPECT_GE(span, burst_ns * (n - 2));
}

TEST_F(StackFixture, ParallelChannelsDoNotSerialize)
{
    const int n = 8;   // one access per channel
    std::vector<Tick> done(n, 0);
    for (int i = 0; i < n; ++i) {
        stack->access(static_cast<std::uint64_t>(i) * 64, 64, false,
                      [&done, i, this] { done[i] = sim.curTick(); });
    }
    sim.run();
    // All channels finish within a whisker of each other.
    auto [lo, hi] = std::minmax_element(done.begin(), done.end());
    EXPECT_LT(static_cast<double>(*hi - *lo) / tickPerNs, 5.0);
}

TEST_F(StackFixture, StatsAccumulate)
{
    timedAccess(0, false);
    timedAccess(4096, true);
    EXPECT_DOUBLE_EQ(stack->bytesServed(), 128.0);
}

TEST(HbmDeathTest, MissingCallbackPanics)
{
    Simulation sim;
    auto *stack = sim.create<HbmStack>("hbm", 750.0 / 8);
    sim.initAll();
    EXPECT_DEATH(stack->access(0, 64, false, nullptr),
                 "completion callback");
}
