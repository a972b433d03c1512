/**
 * @file
 * Process-wide metrics registry: named counters and power-of-two-bin
 * histograms shared by every subsystem (ThreadPool, DSE, cycle sim,
 * thermal solver, cluster sweeps, server).
 *
 * Every update is a relaxed atomic add (or a min/max compare-exchange),
 * so instrumented code may update metrics from any thread, and since
 * the adds commute a dump does not depend on thread interleaving. A
 * metric always counts; ENA_METRICS only decides whether the dump is
 * written. Registration (the name -> metric lookup) takes a mutex —
 * hot paths should cache the returned reference:
 *
 *   // (config, application) pairs evaluated
 *   static telemetry::Counter &evals =
 *       telemetry::counter("node.evaluations");
 *   evals.add();
 *
 * writeMetricsCsv() dumps the registry; ENA_METRICS=<file> makes
 * flush() write that dump at process exit (see telemetry/telemetry.hh).
 */

#ifndef ENA_TELEMETRY_METRICS_HH
#define ENA_TELEMETRY_METRICS_HH

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>

namespace ena {
namespace telemetry {

/** Monotonically increasing integer (events, bytes, tasks...). */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Histogram with fixed power-of-two bins: bin i covers [2^i, 2^(i+1))
 * for i < kBins. Samples below 1 count as underflow, samples at or
 * above 2^kBins (and NaN) as overflow. A sample's bin is its binary
 * exponent, so an exact power of two always lands in the bin it opens
 * (unit-tested in test_metrics.cc).
 */
class Histogram
{
  public:
    static constexpr int kBins = 32;

    void sample(double v);

    /** Bin index for @p v: -1 underflow, kBins overflow. */
    static int binFor(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t binCount(int i) const
    {
        return counts_[static_cast<size_t>(i)].load(
            std::memory_order_relaxed);
    }
    std::uint64_t underflow() const
    {
        return underflow_.load(std::memory_order_relaxed);
    }
    std::uint64_t overflow() const
    {
        return overflow_.load(std::memory_order_relaxed);
    }

    /** Smallest / largest sample seen; 0 with no samples. */
    double min() const;
    double max() const;

    static double binLo(int i) { return std::ldexp(1.0, i); }
    static double binHi(int i) { return std::ldexp(1.0, i + 1); }

    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, kBins> counts_{};
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/**
 * Find-or-create by name. References stay valid for the process
 * lifetime; re-registering a name returns the existing metric.
 */
Counter &counter(const std::string &name);
Histogram &histogram(const std::string &name);

/**
 * CSV dump, sorted by name: header "name,type,value", then one row per
 * counter and per-histogram rows for count, min, max, underflow and
 * overflow (when non-zero), and each non-empty bin (type
 * "histogram_bin[lo,hi)").
 */
void writeMetricsCsv(std::ostream &os);

/** Reset every registered metric to zero (tests/benches). */
void resetMetrics();

} // namespace telemetry
} // namespace ena

#endif // ENA_TELEMETRY_METRICS_HH
