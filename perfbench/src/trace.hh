/**
 * @file
 * The benchmark's own span recorder. Spans wrap the public library
 * calls the benchmark makes; the library's ENA_TRACE telemetry stays
 * off, so traced and untraced runs execute the same program.
 *
 * A span records its name, start and end (ns since process start),
 * the span open on the same thread when it started (its parent), the
 * op/request id it belongs to, and how many items it covers (a span
 * around N scalar calls reports per-call time as duration / N).
 * Spans stay in memory until writeJson() at exit. When tracing is
 * disabled a Span reads no clock and takes no lock.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds since the first call in this process (steady clock). */
std::int64_t nowNs();

struct SpanRecord
{
    std::int64_t id = 0;
    std::int64_t parent = -1;   ///< -1 for a root span
    std::int64_t opId = -1;     ///< op / request id, -1 when none
    std::uint64_t items = 1;
    const char *name = "";      ///< static storage
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int thread = 0;
};

namespace tracer {

void setEnabled(bool on);
bool enabled();

/** Spans recorded so far. */
std::size_t count();

/**
 * Per-item durations (ns) of the spans named @p name among those
 * recorded after the first @p first (spans are kept in end order).
 */
std::vector<double> itemDurationsNs(const std::string &name,
                                    std::size_t first);

/** Write every span as a JSON array; false on I/O failure. */
bool writeJson(const std::string &path);

} // namespace tracer

/** RAII span; a no-op while tracing is disabled. */
class Span
{
  public:
    explicit Span(const char *name, std::int64_t op_id = -1,
                  std::uint64_t items = 1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_ = false;
    SpanRecord rec_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
