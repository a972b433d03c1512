#include "util/logging.hh"

#include <atomic>
#include <cstdio>
#include <iostream>
#include <mutex>

#include "telemetry/telemetry.hh"

namespace ena {

namespace {

std::atomic<LogLevel> globalLevel{LogLevel::Warn};

/**
 * One lock around every sink write: ThreadPool workers and the caller
 * log concurrently, and without it the prefix/message/newline pieces
 * of different lines interleave on the shared streams.
 */
std::mutex &
sinkMutex()
{
    static std::mutex *m = new std::mutex();   // leaked on purpose
    return *m;
}

LogSink &
customSink()
{
    static LogSink *sink = new LogSink();      // leaked on purpose
    return *sink;
}

/**
 * Emit one fully formatted line: exactly one locked write to the
 * custom sink or stderr, plus an instant event on the telemetry trace
 * when tracing is on (so warnings line up with the spans that
 * produced them in the viewer).
 */
void
emitLine(LogLevel level, const std::string &line)
{
    if (telemetry::tracingEnabled())
        telemetry::instant("log", line);
    std::lock_guard<std::mutex> lk(sinkMutex());
    if (customSink()) {
        customSink()(level, line);
        return;
    }
    std::cerr << line << '\n';
}

} // anonymous namespace

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

void
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lk(sinkMutex());
    customSink() = std::move(sink);
}

namespace detail {

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emitLine(LogLevel::Error,
             "fatal: " + msg + "\n  at " + file + ":" +
                 std::to_string(line));
    // std::exit runs the telemetry atexit flush, so a fatal() under
    // ENA_TRACE/ENA_METRICS still leaves complete output files.
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emitLine(LogLevel::Error,
             "panic: " + msg + "\n  at " + file + ":" +
                 std::to_string(line));
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        emitLine(LogLevel::Warn, "warn: " + msg);
}

} // namespace detail
} // namespace ena
