#include "telemetry/telemetry.hh"

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>

#include "telemetry/metrics.hh"

namespace ena {
namespace telemetry {

namespace {

struct OutputState
{
    std::mutex m;
    std::string tracePath;
    std::string metricsPath;
    bool atexitRegistered = false;
};

OutputState &
outputState()
{
    static OutputState *s = new OutputState();   // leaked on purpose
    return *s;
}

void
registerAtexitFlush(OutputState &s)
{
    // Caller holds s.m. The hook rewrites the configured files from
    // the full in-memory state, so a process that never flushed
    // explicitly still gets complete outputs.
    if (!s.atexitRegistered) {
        s.atexitRegistered = true;
        std::atexit([] { flush(); });
    }
}

} // anonymous namespace

namespace detail {

void
initFromEnvironment()
{
    if (const char *path = std::getenv("ENA_TRACE"))
        enableTracing(path);
    if (const char *path = std::getenv("ENA_METRICS"))
        enableMetrics(path);
}

} // namespace detail

void
enableTracing(const std::string &path)
{
    OutputState &s = outputState();
    std::lock_guard<std::mutex> lk(s.m);
    s.tracePath = path;
    if (!path.empty())
        registerAtexitFlush(s);
    detail::tracingOn.store(true, std::memory_order_relaxed);
}

void
disableTracing()
{
    detail::tracingOn.store(false, std::memory_order_relaxed);
}

void
enableMetrics(const std::string &path)
{
    OutputState &s = outputState();
    std::lock_guard<std::mutex> lk(s.m);
    s.metricsPath = path;
    if (!path.empty())
        registerAtexitFlush(s);
    detail::metricsOn.store(true, std::memory_order_relaxed);
}

void
disableMetrics()
{
    detail::metricsOn.store(false, std::memory_order_relaxed);
}

void
flush()
{
    std::string trace_path, metrics_path;
    {
        OutputState &s = outputState();
        std::lock_guard<std::mutex> lk(s.m);
        trace_path = s.tracePath;
        metrics_path = s.metricsPath;
    }
    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        if (os)
            writeTrace(os);
    }
    if (!metrics_path.empty()) {
        std::ofstream os(metrics_path);
        if (os)
            writeMetricsCsv(os);
    }
}

} // namespace telemetry
} // namespace ena
