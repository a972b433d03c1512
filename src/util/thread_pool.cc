#include "util/thread_pool.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace ena {

namespace {

/**
 * Set while the current thread is executing chunks of a job (worker or
 * participating caller): a nested parallelFor from such a thread runs
 * inline instead of re-entering the pool.
 */
thread_local bool in_task = false;

std::mutex global_pool_mutex;
ThreadPool *global_pool = nullptr;

/**
 * atexit hook: join the workers before process teardown so shutdown is
 * deterministic (no threads outliving static destructors). Safe even
 * when the exit originates inside a worker task or a forked child —
 * the destructor detects both and detaches instead of joining.
 */
void
destroyGlobalPool()
{
    std::lock_guard<std::mutex> lk(global_pool_mutex);
    delete global_pool;
    global_pool = nullptr;
}

} // anonymous namespace

ThreadPool::ThreadPool(int threads)
    : numThreads_(threads > 0 ? threads : defaultThreads()),
      ownerPid_(static_cast<long>(::getpid()))
{
    workers_.reserve(numThreads_ - 1);
    for (int i = 0; i < numThreads_ - 1; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    // In a forked child the worker threads only exist in the parent;
    // joining their std::thread handles would deadlock. Detach the
    // handles and let the child exit caller-only (gtest death tests).
    const bool forked = static_cast<long>(::getpid()) != ownerPid_;
    for (std::thread &t : workers_) {
        if (!t.joinable())
            continue;
        if (forked || t.get_id() == std::this_thread::get_id())
            t.detach();   // self-join guard: exit from inside a worker
        else
            t.join();
    }
}

int
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("ENA_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<int>(std::min<long>(v, 1024));
        warn("ignoring invalid ENA_THREADS='", env,
             "' (want a positive integer)");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lk(global_pool_mutex);
    if (!global_pool) {
        global_pool = new ThreadPool();
        // Registered once: the hook reads the current pointer, so
        // setGlobalThreads replacements are covered too. Joining at
        // exit (rather than leaking) keeps worker shutdown
        // deterministic now that worker tasks report failures as
        // values/exceptions instead of exiting mid-task.
        static bool registered = false;
        if (!registered) {
            std::atexit(destroyGlobalPool);
            registered = true;
        }
    }
    return *global_pool;
}

void
ThreadPool::setGlobalThreads(int n)
{
    std::lock_guard<std::mutex> lk(global_pool_mutex);
    delete global_pool;
    global_pool = new ThreadPool(n);
}

std::size_t
ThreadPool::queuedTasks() const
{
    std::lock_guard<std::mutex> lk(m_);
    if (!job_)
        return 0;
    std::size_t next = job_->next.load(std::memory_order_relaxed);
    return next >= job_->n ? 0 : job_->n - next;
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    jobsSubmitted_.fetch_add(1, std::memory_order_relaxed);
    if (numThreads_ <= 1 || n == 1 || in_task) {
        // Serial/nested fallback: same lowest-failing-index
        // propagation as the pooled path, so the failure surfaced is
        // identical at any thread count.
        ENA_SPAN("threadpool", "parallel_for_inline");
        Job job;
        job.fn = &fn;
        job.n = n;
        for (std::size_t i = 0; i < n; ++i)
            runTask(job, i);
        tasksExecuted_.fetch_add(n, std::memory_order_relaxed);
        if (job.error)
            std::rethrow_exception(job.error);
        return;
    }

    // One top-level job at a time per pool.
    std::lock_guard<std::mutex> submit(submitMutex_);

    ENA_SPAN("threadpool", "parallel_for");
    telemetry::traceCounter("threadpool", "queued_tasks",
                            static_cast<double>(n));

    Job job;
    job.fn = &fn;
    job.n = n;
    job.chunk = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(numThreads_) * 4));

    {
        std::lock_guard<std::mutex> lk(m_);
        job_ = &job;
        ++generation_;
    }
    workCv_.notify_all();

    // The caller works too, so the job drains even with no workers
    // (single-thread pools, forked children).
    in_task = true;
    runChunks(job);
    in_task = false;

    {
        std::unique_lock<std::mutex> lk(m_);
        doneCv_.wait(lk, [&] { return activeWorkers_ == 0; });
        job_ = nullptr;
    }
    telemetry::traceCounter("threadpool", "queued_tasks", 0.0);
    if (job.error)
        std::rethrow_exception(job.error);
}

/**
 * One index, with failure capture. Every index runs regardless of
 * other indices' failures; the job records only the lowest failing
 * index, which the join barrier rethrows.
 */
void
ThreadPool::runTask(Job &job, std::size_t index)
{
    try {
        (*job.fn)(index);
    } catch (...) {
        // Ties are impossible: each index has one owner.
        std::lock_guard<std::mutex> lk(m_);
        if (index < job.errorIndex) {
            job.errorIndex = index;
            job.error = std::current_exception();
        }
    }
}

void
ThreadPool::runChunks(Job &job)
{
    for (;;) {
        std::size_t begin =
            job.next.fetch_add(job.chunk, std::memory_order_relaxed);
        if (begin >= job.n)
            return;
        std::size_t end = std::min(begin + job.chunk, job.n);
        // Per-chunk telemetry: a span on this thread's trace track and
        // the pool-wide busy-time counter. Both are write-only and
        // gated on the enable flags, so the chunk claiming order and
        // per-index results are untouched.
        telemetry::ScopedSpan chunk_span("threadpool", "chunk");
        const bool timed = telemetry::metricsEnabled();
        const double t0 = timed ? telemetry::nowUs() : 0.0;
        for (std::size_t i = begin; i < end; ++i)
            runTask(job, i);
        tasksExecuted_.fetch_add(end - begin,
                                 std::memory_order_relaxed);
        if (timed) {
            // Microseconds all threads spent executing chunks.
            static telemetry::Counter &busy_us =
                telemetry::counter("threadpool.busy_us");
            busy_us.add(static_cast<std::uint64_t>(telemetry::nowUs() - t0));
        }
    }
}

void
ThreadPool::workerLoop(int worker_index)
{
    telemetry::setThreadName("ena-worker-" +
                             std::to_string(worker_index));
    std::uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lk(m_);
            workCv_.wait(lk, [&] {
                return stop_ || (job_ && generation_ != seen);
            });
            if (stop_)
                return;
            job = job_;
            seen = generation_;
            ++activeWorkers_;
        }
        in_task = true;
        runChunks(*job);
        in_task = false;
        {
            std::lock_guard<std::mutex> lk(m_);
            --activeWorkers_;
        }
        doneCv_.notify_all();
    }
}

void
parallel_for(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    ThreadPool::global().parallelFor(n, fn);
}

} // namespace ena
