/**
 * @file
 * A small, deterministic thread pool for the embarrassingly parallel
 * loops in ena-sim: design-space sweeps, per-application studies, and
 * batched simulation runs.
 *
 * Design goals, in order:
 *
 *  1. Bit-identical results regardless of thread count. parallelFor
 *     hands out index ranges from an atomic chunk counter; each worker
 *     writes only into the slot(s) for the indices it claimed, and any
 *     reduction happens afterwards on the caller in index order. There
 *     is no work stealing and no order-dependent accumulation.
 *  2. Graceful single-thread fallback: with one thread (or ENA_THREADS=1)
 *     parallelFor degenerates to a plain serial loop on the caller, so
 *     serial behaviour is the trivially correct reference.
 *  3. Safe nesting: a parallelFor issued from inside a worker task runs
 *     inline (serially) instead of deadlocking the pool, so library
 *     code can parallelize freely without knowing its caller's context.
 *
 *  4. Failure isolation: a throwing task never takes the process (or
 *     the other tasks) down. Every index runs to completion, and the
 *     join barrier rethrows the failure of the *lowest* failing index,
 *     the one a serial loop would surface first, at any thread count.
 *
 * The process-wide pool (ThreadPool::global()) sizes itself from the
 * ENA_THREADS environment variable, defaulting to the hardware thread
 * count. The caller always participates in the work, so a pool of N
 * threads spawns N-1 workers and a job completes even if no worker
 * ever wakes up (this also keeps gtest death tests, which fork, safe).
 */

#ifndef ENA_UTIL_THREAD_POOL_HH
#define ENA_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ena {

class ThreadPool
{
  public:
    /** @param threads worker count; 0 means defaultThreads(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads participating in a job (workers + caller). */
    int threads() const { return numThreads_; }

    /** Alias of threads() for container-style introspection. */
    int size() const { return numThreads_; }

    /**
     * Indices of the in-flight parallelFor job not yet claimed by any
     * thread; 0 when the pool is idle. A point-in-time snapshot — by
     * the time the caller looks at it the workers may have drained
     * more — surfaced as the telemetry queue-depth signal.
     */
    std::size_t queuedTasks() const;

    /**
     * Total indices executed by parallelFor/parallelMap since
     * construction, counting every path (pooled, serial fallback,
     * nested-inline).
     */
    std::uint64_t tasksExecuted() const
    {
        return tasksExecuted_.load(std::memory_order_relaxed);
    }

    /** parallelFor calls since construction (any execution path). */
    std::uint64_t jobsSubmitted() const
    {
        return jobsSubmitted_.load(std::memory_order_relaxed);
    }

    /**
     * Run fn(i) for every i in [0, n), possibly concurrently. Blocks
     * until every index has been processed. Every index executes even
     * when some fail (failure isolation), and once the job drains, the
     * exception of the lowest failing index is rethrown on the caller:
     * the same failure a serial loop would surface first, at any
     * thread count.
     * fn must not assume any particular execution order; results must
     * be written to per-index slots for determinism.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Evaluate fn(i) for i in [0, n) and return the results in index
     * order — identical to a serial loop, any thread count.
     */
    template <typename Fn>
    auto
    parallelMap(std::size_t n, Fn &&fn)
        -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
    {
        using T = std::decay_t<decltype(fn(std::size_t{0}))>;
        std::vector<T> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Evaluate fn(i) for i in [0, n) in parallel, then fold the results
     * into @p init with op(acc, value) on the caller in strict index
     * order: acc = op(op(op(init, fn(0)), fn(1)), ...). Because the
     * reduction itself is serial and ordered, the result is
     * bit-identical to a serial loop at any thread count even for
     * non-associative (floating-point) or non-commutative operators.
     */
    template <typename T, typename Fn, typename Op>
    T
    parallelReduce(std::size_t n, T init, Fn &&fn, Op &&op)
    {
        auto values = parallelMap(n, std::forward<Fn>(fn));
        T acc = std::move(init);
        for (auto &v : values)
            acc = op(std::move(acc), std::move(v));
        return acc;
    }

    /**
     * ENA_THREADS when set to a positive integer, otherwise the
     * hardware concurrency (at least 1).
     */
    static int defaultThreads();

    /**
     * The process-wide pool shared by all sweeps and studies.
     * Constructed on first use with defaultThreads() threads and
     * destroyed by an atexit hook, which joins the workers
     * deterministically (sanitizers see a clean shutdown). The
     * destructor detaches instead of joining when that would deadlock
     * or touch threads that do not exist: exits from inside a worker
     * task (fatal() in legacy wrappers) and forked children (gtest
     * death tests) remain safe.
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with an n-thread one (0 = default).
     * For tests and benchmarks comparing serial vs parallel runs; call
     * only from the main thread with no job in flight.
     */
    static void setGlobalThreads(int n);

  private:
    struct Job
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::size_t chunk = 1;
        std::atomic<std::size_t> next{0};
        /** Lowest failing index and its exception; guarded by m_. */
        std::exception_ptr error;
        std::size_t errorIndex = SIZE_MAX;
    };

    void workerLoop(int worker_index);
    void runChunks(Job &job);
    void runTask(Job &job, std::size_t index);

    int numThreads_;
    long ownerPid_;   ///< pid at construction; fork detection in dtor
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> tasksExecuted_{0};
    std::atomic<std::uint64_t> jobsSubmitted_{0};

    std::mutex submitMutex_;        ///< serializes top-level parallelFor
    mutable std::mutex m_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    Job *job_ = nullptr;
    std::uint64_t generation_ = 0;
    int activeWorkers_ = 0;
    bool stop_ = false;
};

/** parallelFor on the process-wide pool. */
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)> &fn);

/** parallelMap on the process-wide pool. */
template <typename Fn>
auto
parallel_map(std::size_t n, Fn &&fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
{
    return ThreadPool::global().parallelMap(n, std::forward<Fn>(fn));
}

/** parallelReduce on the process-wide pool. */
template <typename T, typename Fn, typename Op>
T
parallel_reduce(std::size_t n, T init, Fn &&fn, Op &&op)
{
    return ThreadPool::global().parallelReduce(
        n, std::move(init), std::forward<Fn>(fn), std::forward<Op>(op));
}

} // namespace ena

#endif // ENA_UTIL_THREAD_POOL_HH
