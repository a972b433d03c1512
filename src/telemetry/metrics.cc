#include "telemetry/metrics.hh"

#include <map>
#include <mutex>
#include <ostream>

namespace ena {
namespace telemetry {

namespace {

struct Registry
{
    std::mutex m;
    // std::map keeps dumps sorted by name, and its nodes never move.
    std::map<std::string, Counter> counters;
    std::map<std::string, Histogram> histograms;
};

Registry &
registry()
{
    static Registry *r = new Registry();   // leaked on purpose
    return *r;
}

void
atomicMin(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

} // anonymous namespace

int
Histogram::binFor(double v)
{
    if (v < 1.0)
        return -1;
    if (!(v < binLo(kBins)))   // NaN fails every comparison
        return kBins;
    int exp = 0;
    std::frexp(v, &exp);   // v = m * 2^exp with m in [0.5, 1)
    return exp - 1;
}

void
Histogram::sample(double v)
{
    const int bin = binFor(v);
    if (bin < 0)
        underflow_.fetch_add(1, std::memory_order_relaxed);
    else if (bin == kBins)
        overflow_.fetch_add(1, std::memory_order_relaxed);
    else
        counts_[static_cast<size_t>(bin)].fetch_add(
            1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicMin(min_, v);
    atomicMax(max_, v);
}

double
Histogram::min() const
{
    return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double
Histogram::max() const
{
    return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    underflow_.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    return r.counters.try_emplace(name).first->second;
}

Histogram &
histogram(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    return r.histograms.try_emplace(name).first->second;
}

void
writeMetricsCsv(std::ostream &os)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    os << "name,type,value\n";
    for (const auto &[name, c] : r.counters)
        os << name << ",counter," << c.value() << "\n";
    for (const auto &[name, h] : r.histograms) {
        os << name << ",histogram_count," << h.count() << "\n";
        os << name << ",histogram_min," << h.min() << "\n";
        os << name << ",histogram_max," << h.max() << "\n";
        if (h.underflow())
            os << name << ",histogram_underflow," << h.underflow()
               << "\n";
        for (int i = 0; i < Histogram::kBins; ++i) {
            if (h.binCount(i)) {
                os << name << ",histogram_bin[" << Histogram::binLo(i)
                   << "," << Histogram::binHi(i) << "),"
                   << h.binCount(i) << "\n";
            }
        }
        if (h.overflow())
            os << name << ",histogram_overflow," << h.overflow()
               << "\n";
    }
}

void
resetMetrics()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.m);
    for (auto &[name, c] : r.counters)
        c.reset();
    for (auto &[name, h] : r.histograms)
        h.reset();
}

} // namespace telemetry
} // namespace ena
