/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, rescheduling,
 * descheduling, lambda events, and run limits.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.hh"

using namespace ena;

namespace {

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id)
        : log_(log), id_(id)
    {}

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

} // anonymous namespace

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    RecordingEvent c(log, 3);
    q.schedule(&b, 20);
    q.schedule(&a, 10);
    q.schedule(&c, 30);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    RecordingEvent c(log, 3);
    q.schedule(&a, 5);
    q.schedule(&b, 5);
    q.schedule(&c, 5);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    q.schedule(&a, 30);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, LambdaEventsSelfDelete)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        q.scheduleLambda(static_cast<Tick>(i), [&fired] { ++fired; });
    q.run();
    EXPECT_EQ(fired, 10);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunLimitStopsEarly)
{
    EventQueue q;
    int fired = 0;
    q.scheduleLambda(10, [&fired] { ++fired; });
    q.scheduleLambda(100, [&fired] { ++fired; });
    std::uint64_t n = q.run(50);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleLambda(q.curTick() + 10, chain);
    };
    q.scheduleLambda(0, chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueue, SelfReschedulingEvent)
{
    EventQueue q;
    struct Periodic : Event
    {
        EventQueue &q;
        int count = 0;
        explicit Periodic(EventQueue &queue) : q(queue) {}
        void
        process() override
        {
            if (++count < 3)
                q.schedule(this, q.curTick() + 100);
        }
    } ev(q);
    q.schedule(&ev, 0);
    q.run();
    EXPECT_EQ(ev.count, 3);
    EXPECT_EQ(q.curTick(), 200u);
}

TEST(EventQueue, NextTickAndEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.scheduleLambda(42, [] {});
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.nextTick(), 42u);
}

TEST(EventQueue, EventsProcessedCounter)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.scheduleLambda(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.eventsProcessed(), 7u);
}

TEST(EventQueue, PendingLambdasFreedOnDestruction)
{
    // Covered by ASan/valgrind runs; functionally just must not crash.
    auto *q = new EventQueue;
    q->scheduleLambda(1000, [] {});
    delete q;
    SUCCEED();
}

TEST(EventQueue, DescheduledLambdaFreedOnDestruction)
{
    // Regression: a self-deleting wrapper that was descheduled never
    // fires, so only the queue destructor can free it. Leak checked
    // under ASan.
    auto *q = new EventQueue;
    EventFunctionWrapper *ev = q->scheduleLambda(1000, [] {});
    q->deschedule(ev);
    delete q;
    SUCCEED();
}

TEST(EventQueue, RescheduledLambdaFreedOnceOnDestruction)
{
    // Descheduling and scheduling again leaves lazily-deleted heap
    // entries behind; the destructor must free the wrapper exactly once
    // even when it appears in several entries (double-free checked
    // under ASan).
    auto *q = new EventQueue;
    EventFunctionWrapper *ev = q->scheduleLambda(10, [] {});
    q->deschedule(ev);
    q->schedule(ev, 30);
    q->deschedule(ev);
    q->schedule(ev, 50);
    delete q;
    SUCCEED();
}

TEST(EventQueue, DescheduledLambdaCanBeRescheduled)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper *ev = q.scheduleLambda(10, [&] { ++fired; });
    q.deschedule(ev);
    q.schedule(ev, 20);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 20u);
}

TEST(EventQueue, BoundedRunAdvancesToLimit)
{
    // run(limit) simulates the whole window [0, limit]: the clock must
    // land on the limit even when the last event fires earlier or the
    // queue is empty, so windowed callers can stitch runs together.
    EventQueue q;
    int fired = 0;
    q.scheduleLambda(10, [&] { ++fired; });
    q.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 50u);
    q.run(80); // empty window
    EXPECT_EQ(q.curTick(), 80u);
    q.scheduleLambda(90, [&] { ++fired; });
    q.run(90); // event exactly on the limit is inside the window
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.curTick(), 90u);
}

TEST(EventQueue, UnboundedRunStaysAtLastEvent)
{
    EventQueue q;
    q.scheduleLambda(25, [] {});
    q.run();
    EXPECT_EQ(q.curTick(), 25u);
}

TEST(EventQueue, SegmentedRunMatchesSingleRun)
{
    // Executing [0,90] as three windows must be indistinguishable from
    // one bounded run: same event order, same clock, same count. The
    // self-rescheduling closure lives in a caller-owned slot (capturing
    // an owning handle to itself would leak a reference cycle).
    auto build = [](EventQueue &q, std::vector<Tick> &log,
                    std::function<void()> &chain) {
        chain = [&q, &log, &chain] {
            log.push_back(q.curTick());
            if (q.curTick() < 84)
                q.scheduleLambda(q.curTick() + 7, chain);
        };
        q.scheduleLambda(0, chain);
    };

    EventQueue segmented;
    std::vector<Tick> seg_log;
    std::function<void()> seg_chain;
    build(segmented, seg_log, seg_chain);
    segmented.run(30);
    EXPECT_EQ(segmented.curTick(), 30u);
    segmented.run(60);
    segmented.run(90);

    EventQueue single;
    std::vector<Tick> single_log;
    std::function<void()> single_chain;
    build(single, single_log, single_chain);
    single.run(90);

    EXPECT_EQ(seg_log, single_log);
    EXPECT_EQ(segmented.curTick(), single.curTick());
    EXPECT_EQ(segmented.eventsProcessed(), single.eventsProcessed());
}

TEST(EventQueue, NextTickOrFallback)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTickOr(123), 123u);
    q.scheduleLambda(10, [] {});
    EXPECT_EQ(q.nextTickOr(123), 10u);
}

TEST(EventQueue, NextTickSkimsDescheduledTop)
{
    EventQueue q;
    EventFunctionWrapper a([] {});
    EventFunctionWrapper b([] {});
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_EQ(q.nextTick(), 20u);
    EXPECT_EQ(q.nextTickOr(999), 20u);
    q.deschedule(&b);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTickOr(999), 999u);
}

TEST(EventQueue, AdvanceToIsForwardOnly)
{
    EventQueue q;
    q.scheduleLambda(10, [] {});
    q.run();
    q.advanceTo(40);
    EXPECT_EQ(q.curTick(), 40u);
    q.advanceTo(20); // never moves backwards
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueueDeathTest, SchedulingInPastPanics)
{
    EventQueue q;
    q.scheduleLambda(100, [] {});
    q.run();
    EXPECT_DEATH(q.scheduleLambda(50, [] {}), "in the past");
}

TEST(EventQueueDeathTest, DoubleSchedulePanics)
{
    EventQueue q;
    EventFunctionWrapper ev([] {});
    q.schedule(&ev, 10);
    EXPECT_DEATH(q.schedule(&ev, 20), "already scheduled");
    q.deschedule(&ev);
}

TEST(EventQueueDeathTest, DescheduleUnscheduledPanics)
{
    EventQueue q;
    EventFunctionWrapper ev([] {});
    EXPECT_DEATH(q.deschedule(&ev), "unscheduled");
}
