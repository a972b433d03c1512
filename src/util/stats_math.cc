#include "util/stats_math.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ena {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        ENA_FATAL("mean of empty vector");
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        ENA_FATAL("geomean of empty vector");
    double s = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            ENA_FATAL("geomean requires positive values, got ", x);
        s += std::log(x);
    }
    return std::exp(s / static_cast<double>(xs.size()));
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        ENA_FATAL("percentile of empty vector");
    if (p < 0.0 || p > 100.0)
        ENA_FATAL("percentile needs p in [0, 100], got ", p);
    std::sort(xs.begin(), xs.end());
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    if (lo + 1 >= xs.size())
        return xs.back();
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[lo + 1] - xs[lo]);
}

double
clamp(double v, double lo, double hi)
{
    return std::min(std::max(v, lo), hi);
}

double
smoothMin(double a, double b, double p)
{
    ENA_ASSERT(a > 0.0 && b > 0.0, "smoothMin needs positive rates");
    ENA_ASSERT(p > 0.0, "smoothMin needs positive norm");
    return std::pow(std::pow(a, -p) + std::pow(b, -p), -1.0 / p);
}

} // namespace ena
