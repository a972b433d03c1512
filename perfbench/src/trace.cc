#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> gEnabled{false};
std::atomic<std::int64_t> gNextId{0};
std::atomic<int> gNextThread{0};

std::mutex gMu;
std::vector<SpanRecord> gSpans;   // guarded by gMu

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<std::int64_t> tOpen;
thread_local int tThread = -1;

int
threadIndex()
{
    if (tThread < 0)
        tThread = gNextThread.fetch_add(1);
    return tThread;
}

} // anonymous namespace

std::int64_t
nowNs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

namespace tracer {

void
setEnabled(bool on)
{
    gEnabled.store(on);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

std::size_t
count()
{
    std::lock_guard<std::mutex> lock(gMu);
    return gSpans.size();
}

std::vector<double>
itemDurationsNs(const std::string &name, std::size_t first)
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(gMu);
    for (std::size_t i = first; i < gSpans.size(); ++i) {
        const SpanRecord &s = gSpans[i];
        if (name == s.name && s.items > 0) {
            out.push_back(static_cast<double>(s.endNs - s.startNs) /
                          static_cast<double>(s.items));
        }
    }
    return out;
}

bool
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(gMu);
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < gSpans.size(); ++i) {
        const SpanRecord &s = gSpans[i];
        std::fprintf(f,
                     "{\"id\":%lld,\"parent\":%lld,\"op\":%lld,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"items\":%llu,\"thread\":%d}%s\n",
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.opId), s.name,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<unsigned long long>(s.items), s.thread,
                     i + 1 < gSpans.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

} // namespace tracer

Span::Span(const char *name, std::int64_t op_id, std::uint64_t items)
{
    if (!tracer::enabled())
        return;
    active_ = true;
    rec_.id = gNextId.fetch_add(1);
    rec_.parent = tOpen.empty() ? -1 : tOpen.back();
    rec_.opId = op_id;
    rec_.items = items;
    rec_.name = name;
    rec_.thread = threadIndex();
    tOpen.push_back(rec_.id);
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!active_)
        return;
    rec_.endNs = nowNs();
    tOpen.pop_back();
    std::lock_guard<std::mutex> lock(gMu);
    gSpans.push_back(rec_);
}

} // namespace perfbench
