/**
 * @file
 * Process-wide observability for ena-sim: a scoped-span tracer whose
 * output loads straight into chrome://tracing / Perfetto, plus the
 * enable/flush plumbing shared with the metrics registry
 * (telemetry/metrics.hh).
 *
 * Design rules, in order:
 *
 *  1. Near-zero cost when disabled. A span site guards on one relaxed
 *     atomic-bool load that inlines into the caller (tracingEnabled());
 *     a disabled ScopedSpan takes no timestamp and records nothing.
 *     Counters and histograms always count, with relaxed atomic adds;
 *     ENA_METRICS / enableMetrics() only names the file the CSV dump
 *     goes to and has the pool time its chunks for threadpool.busy_us.
 *  2. Write-only: telemetry never feeds back into any model or
 *     scheduling decision, so serial and parallel sweep results stay
 *     bit-identical with tracing on (gated by bench_telemetry_overhead).
 *  3. Thread-safe by construction: spans land in thread-local buffers
 *     that are merged at flush time; metrics are lock-free atomics.
 *
 * Activation: set ENA_TRACE=<file> and/or ENA_METRICS=<file> in the
 * environment (files are written at process exit and on flush()), or
 * call enableTracing()/enableMetrics() programmatically.
 */

#ifndef ENA_TELEMETRY_TELEMETRY_HH
#define ENA_TELEMETRY_TELEMETRY_HH

#include <atomic>
#include <iosfwd>
#include <string>

namespace ena {
namespace telemetry {

namespace detail {

/** Zero-initialized before any dynamic initialization runs. */
extern std::atomic<bool> tracingOn;
extern std::atomic<bool> metricsOn;

/** Append one completed span to the calling thread's buffer. */
void recordSpan(const char *cat, std::string name, double begin_us,
                double end_us);

/**
 * Apply ENA_TRACE / ENA_METRICS. Called from a static initializer in
 * the tracer's translation unit so any binary containing instrumented
 * code honors the environment without an explicit enable call.
 */
void initFromEnvironment();

} // namespace detail

/** True while span/instant/counter events are being collected. */
inline bool
tracingEnabled()
{
    return detail::tracingOn.load(std::memory_order_relaxed);
}

/** True from enableMetrics() (or ENA_METRICS) to disableMetrics(). */
inline bool
metricsEnabled()
{
    return detail::metricsOn.load(std::memory_order_relaxed);
}

/**
 * Start collecting trace events. @p path is where flush() writes the
 * Chrome trace_event JSON; the empty string keeps events in memory
 * only (use writeTrace() to inspect them — unit tests do this).
 */
void enableTracing(const std::string &path = "");
void disableTracing();

/** Dump the metrics registry as CSV; @p path as for enableTracing. */
void enableMetrics(const std::string &path = "");
void disableMetrics();

/** Microseconds since process start (steady clock). */
double nowUs();

/**
 * Label the calling thread in the trace viewer (Chrome metadata
 * event). Safe to call whether or not tracing is enabled.
 */
void setThreadName(const std::string &name);

/** Point-in-time event (Chrome "instant"); no-op when disabled. */
void instant(const char *cat, std::string name);

/**
 * Time-series sample rendered as a counter track in the trace viewer
 * (Chrome "C" event); no-op when disabled.
 */
void traceCounter(const char *cat, std::string name, double value);

/**
 * Write the trace and metrics files configured via enableTracing /
 * enableMetrics / the environment. Idempotent: rewrites each file from
 * the full in-memory state, so it is safe to call mid-run and again at
 * exit (an atexit hook does the final flush automatically whenever a
 * file path is configured).
 */
void flush();

/** Serialize every recorded event as Chrome trace_event JSON. */
void writeTrace(std::ostream &os);

/**
 * Drop all recorded trace events and reset every registered metric to
 * zero. For unit tests and benchmarks that need isolated runs; leaves
 * the enabled flags and output paths untouched.
 */
void reset();

/**
 * RAII duration span: records one Chrome "X" event from construction
 * to destruction on the calling thread. When tracing is disabled the
 * constructor is one relaxed load and the destructor a branch.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *cat, const char *name)
    {
        if (tracingEnabled()) {
            cat_ = cat;
            name_ = name;
            beginUs_ = nowUs();
        }
    }

    /** For names built at runtime (argument is built either way; keep
     *  such spans off per-index hot paths). */
    ScopedSpan(const char *cat, std::string name)
    {
        if (tracingEnabled()) {
            cat_ = cat;
            name_ = std::move(name);
            beginUs_ = nowUs();
        }
    }

    ~ScopedSpan()
    {
        if (cat_)
            detail::recordSpan(cat_, std::move(name_), beginUs_, nowUs());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *cat_ = nullptr;   ///< null while inactive
    std::string name_;
    double beginUs_ = 0.0;
};

#define ENA_TELEMETRY_CONCAT2(a, b) a##b
#define ENA_TELEMETRY_CONCAT(a, b) ENA_TELEMETRY_CONCAT2(a, b)

/** Scoped span covering the rest of the enclosing block. */
#define ENA_SPAN(cat, name) \
    ::ena::telemetry::ScopedSpan ENA_TELEMETRY_CONCAT( \
        ena_telemetry_span_, __LINE__)(cat, name)

} // namespace telemetry
} // namespace ena

#endif // ENA_TELEMETRY_TELEMETRY_HH
