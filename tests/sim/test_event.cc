/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, rescheduling,
 * descheduling, lambda events and their ownership, and run limits.
 */

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.hh"

using namespace ena;

namespace {

/** A callable that appends @p id to @p log. */
std::function<void()>
record(std::vector<int> &log, int id)
{
    return [&log, id] { log.push_back(id); };
}

} // anonymous namespace

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue q;
    std::vector<int> log;
    Event a(record(log, 1));
    Event b(record(log, 2));
    Event c(record(log, 3));
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
    Event a(record(log, 1));
    Event b(record(log, 2));
    Event c(record(log, 3));
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
    Event a(record(log, 1));
    Event b(record(log, 2));
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
    Event a(record(log, 1));
    Event b(record(log, 2));
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
    int count = 0;
    Event ev([&] {
        if (++count < 3)
            q.schedule(&ev, q.curTick() + 100);
    });
    q.schedule(&ev, 0);
    q.run();
    EXPECT_EQ(count, 3);
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

TEST(EventQueue, DestroyedQueueFreesQueuedAndChainedLambdas)
{
    // Every callback holds a copy of `token`, so its use count is one
    // more than the number of lambda events alive (leaks also checked
    // under ASan).
    auto token = std::make_shared<int>(0);
    auto q = std::make_unique<EventQueue>();
    EventQueue &queue = *q;
    for (Tick t : {10, 20, 30}) {
        queue.scheduleLambda(t, [&queue, token] {
            // A firing lambda queues another one past the run's limit.
            queue.scheduleLambda(queue.curTick() + 100, [token] {});
        });
    }
    queue.run(25);
    EXPECT_EQ(queue.eventsProcessed(), 2u);
    // Pending: the one at 30 and the two that the fired ones queued.
    EXPECT_EQ(token.use_count(), 4);
    q.reset();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DestroyedQueueSkipsStaleCallerOwnedEntry)
{
    // A caller-owned event that was descheduled and then destroyed
    // leaves its entry in the heap. The destructor frees the lambda
    // queued beside it and never reads that entry (use after free
    // checked under ASan).
    auto q = std::make_unique<EventQueue>();
    auto ev = std::make_unique<Event>([] {});
    q->schedule(ev.get(), 10);
    q->scheduleLambda(20, [] {});
    q->deschedule(ev.get());
    ev.reset();
    q.reset();
    SUCCEED();
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

TEST(EventQueue, NextTickSkimsDescheduledTop)
{
    EventQueue q;
    Event a([] {});
    Event b([] {});
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_EQ(q.nextTick(), 20u);
    q.deschedule(&b);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeathTest, SchedulingInPastPanics)
{
    EventQueue q;
    q.scheduleLambda(100, [] {});
    q.run();
    EXPECT_DEATH(q.scheduleLambda(50, [] {}), "in the past");
    Event ev([] {});
    EXPECT_DEATH(q.schedule(&ev, 50), "in the past");
}

TEST(EventQueueDeathTest, DoubleSchedulePanics)
{
    EventQueue q;
    Event ev([] {});
    q.schedule(&ev, 10);
    EXPECT_DEATH(q.schedule(&ev, 20), "already scheduled");
    q.deschedule(&ev);
}

TEST(EventQueueDeathTest, DescheduleUnscheduledPanics)
{
    EventQueue q;
    Event ev([] {});
    EXPECT_DEATH(q.deschedule(&ev), "unscheduled");
}
