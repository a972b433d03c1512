/**
 * @file
 * ThreadPool mechanics: determinism, edge cases (zero items, one item,
 * more threads than items), nesting, and exception propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hh"

using namespace ena;

TEST(ThreadPool, ZeroItemsIsANoOp)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    EXPECT_TRUE(pool.parallelMap(0, [](std::size_t i) { return i; })
                    .empty());
}

TEST(ThreadPool, OneItemRunsExactlyOnce)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, MoreThreadsThanItems)
{
    ThreadPool pool(16);
    std::vector<int> hits(3, 0);
    pool.parallelFor(3, [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 10007;   // prime, not a multiple of chunk
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, MapPreservesIndexOrder)
{
    ThreadPool pool(8);
    auto out = pool.parallelMap(
        1000, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPool, ParallelResultsMatchSerialBitwise)
{
    // A floating-point map whose per-slot results must not depend on
    // the thread count (the determinism contract every sweep relies
    // on).
    auto work = [](std::size_t i) {
        double x = static_cast<double>(i) + 0.5;
        return std::sqrt(x) * std::log(x + 1.0) / (x + 2.0);
    };
    ThreadPool serial(1);
    ThreadPool parallel(7);
    auto a = serial.parallelMap(5000, work);
    auto b = parallel.parallelMap(5000, work);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "index " << i;   // bitwise, not near
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(1000,
                         [](std::size_t i) {
                             if (i == 617)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives a failed job and runs the next one normally.
    std::atomic<int> calls{0};
    pool.parallelFor(100, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesFromSerialFallback)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(
                     10, [](std::size_t) { throw std::logic_error("x"); }),
                 std::logic_error);
}

TEST(ThreadPool, EveryIndexRunsEvenWhenOneThrows)
{
    // Failure isolation: a throwing index must not prevent the others
    // from executing (they get quarantined by the sweep layer, not
    // skipped by the pool).
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      ++hits[i];
                                      if (i == 41)
                                          throw std::runtime_error("41");
                                  }),
                 std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, LowestFailingIndexWinsAtAnyThreadCount)
{
    // With several failing indices the join barrier must rethrow the
    // lowest one — the same failure a serial loop would surface first —
    // regardless of which worker happened to hit its failure last.
    for (int threads : {1, 4, 8}) {
        ThreadPool pool(threads);
        std::string what;
        try {
            pool.parallelFor(200, [](std::size_t i) {
                if (i == 23 || i == 99 || i == 180)
                    throw std::runtime_error("fail@" + std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_EQ(what, "fail@23") << threads << " threads";
    }
}

TEST(ThreadPool, DestructionJoinsCleanlyAfterAThrowingJob)
{
    // Regression: a throwing task must neither std::terminate the
    // process nor leave a worker wedged so the destructor hangs.
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(4);
        EXPECT_THROW(pool.parallelFor(50,
                                      [](std::size_t i) {
                                          if (i % 7 == 3)
                                              throw std::logic_error("x");
                                      }),
                     std::logic_error);
        // Pool destroyed here; a deterministic join must succeed.
    }
    SUCCEED();
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    pool.parallelFor(8, [&](std::size_t outer) {
        // Inner calls must not deadlock; they run serially on the
        // owning thread.
        pool.parallelFor(8, [&](std::size_t inner) {
            ++hits[outer * 8 + inner];
        });
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialJobsReuseWorkers)
{
    ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> calls{0};
        pool.parallelFor(97, [&](std::size_t) { ++calls; });
        ASSERT_EQ(calls.load(), 97);
    }
}

TEST(ThreadPool, ThreadsReportsPoolSize)
{
    EXPECT_EQ(ThreadPool(3).threads(), 3);
    EXPECT_EQ(ThreadPool(1).threads(), 1);
    EXPECT_GE(ThreadPool().threads(), 1);
}

TEST(ThreadPool, SizeAliasesThreads)
{
    ThreadPool pool(5);
    EXPECT_EQ(pool.size(), pool.threads());
    EXPECT_EQ(pool.size(), 5);
}

TEST(ThreadPool, QueuedTasksIsZeroWhenIdle)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.queuedTasks(), 0u);
    pool.parallelFor(100, [](std::size_t) {});
    EXPECT_EQ(pool.queuedTasks(), 0u);   // drained after the job
}

TEST(ThreadPool, TasksExecutedCountsEveryIndex)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.tasksExecuted(), 0u);
    EXPECT_EQ(pool.jobsSubmitted(), 0u);
    pool.parallelFor(123, [](std::size_t) {});
    EXPECT_EQ(pool.tasksExecuted(), 123u);
    EXPECT_EQ(pool.jobsSubmitted(), 1u);
    pool.parallelFor(0, [](std::size_t) {});   // no-op, not a job
    pool.parallelFor(7, [](std::size_t) {});
    EXPECT_EQ(pool.tasksExecuted(), 130u);
    EXPECT_EQ(pool.jobsSubmitted(), 2u);
}

TEST(ThreadPool, TasksExecutedCountsSerialAndNestedPaths)
{
    ThreadPool serial(1);
    serial.parallelFor(11, [](std::size_t) {});
    EXPECT_EQ(serial.tasksExecuted(), 11u);

    ThreadPool pool(4);
    pool.parallelFor(4, [&](std::size_t) {
        pool.parallelFor(3, [](std::size_t) {});   // nested -> inline
    });
    EXPECT_EQ(pool.tasksExecuted(), 4u + 4u * 3u);
}

TEST(ThreadPool, DefaultThreadsHonorsEnaThreadsEnv)
{
    ASSERT_EQ(setenv("ENA_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3);
    ASSERT_EQ(setenv("ENA_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);   // falls back, warns
    ASSERT_EQ(unsetenv("ENA_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, ReduceSumsInIndexOrder)
{
    ThreadPool pool(8);
    auto sum = pool.parallelReduce(
        1000, std::size_t{0}, [](std::size_t i) { return i; },
        [](std::size_t acc, std::size_t v) { return acc + v; });
    EXPECT_EQ(sum, 999u * 1000u / 2u);
}

TEST(ThreadPool, ReduceOfZeroItemsReturnsInit)
{
    ThreadPool pool(4);
    auto r = pool.parallelReduce(
        0, 42, [](std::size_t) { return 7; },
        [](int acc, int v) { return acc + v; });
    EXPECT_EQ(r, 42);
}

TEST(ThreadPool, ReduceIsDeterministicForNonCommutativeOps)
{
    // String concatenation is order-sensitive: the reduction must fold
    // slots in index order regardless of which thread produced them.
    auto digit = [](std::size_t i) { return std::to_string(i % 10); };
    auto concat = [](std::string acc, std::string v) {
        return std::move(acc) + std::move(v);
    };
    ThreadPool serial(1);
    ThreadPool parallel(8);
    auto a = serial.parallelReduce(200, std::string{}, digit, concat);
    auto b = parallel.parallelReduce(200, std::string{}, digit, concat);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 200u);
    EXPECT_EQ(a.substr(0, 12), "012345678901");
}

TEST(ThreadPool, ReduceFloatingPointBitIdenticalToSerial)
{
    // FP addition is non-associative, so a deterministic reduction must
    // not regroup terms by thread count.
    auto term = [](std::size_t i) {
        double x = static_cast<double>(i) + 0.25;
        return std::sqrt(x) / (x + 1.0);
    };
    auto add = [](double acc, double v) { return acc + v; };
    ThreadPool serial(1);
    ThreadPool parallel(7);
    double a = serial.parallelReduce(5000, 0.0, term, add);
    double b = parallel.parallelReduce(5000, 0.0, term, add);
    EXPECT_EQ(a, b);   // bitwise, not near
}

TEST(ThreadPool, FreeFunctionReduceUsesGlobalPool)
{
    ThreadPool::setGlobalThreads(3);
    auto sum = parallel_reduce(
        100, 0, [](std::size_t i) { return static_cast<int>(i); },
        [](int acc, int v) { return acc + v; });
    EXPECT_EQ(sum, 4950);
    ThreadPool::setGlobalThreads(0);
}

TEST(ThreadPool, GlobalPoolIsResizable)
{
    ThreadPool::setGlobalThreads(2);
    EXPECT_EQ(ThreadPool::global().threads(), 2);
    std::atomic<int> calls{0};
    parallel_for(10, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 10);
    auto sq = parallel_map(5, [](std::size_t i) { return i * i; });
    EXPECT_EQ(sq, (std::vector<std::size_t>{0, 1, 4, 9, 16}));
    ThreadPool::setGlobalThreads(0);   // back to the default size
    EXPECT_EQ(ThreadPool::global().threads(),
              ThreadPool::defaultThreads());
}
