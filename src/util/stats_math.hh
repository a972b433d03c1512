/**
 * @file
 * Small numeric helpers: means, geomean, percentiles, clamping and the
 * smooth minimum used by the analytic roofline model.
 */

#ifndef ENA_UTIL_STATS_MATH_HH
#define ENA_UTIL_STATS_MATH_HH

#include <vector>

namespace ena {

/** Arithmetic mean; fatal() on empty input. */
double mean(const std::vector<double> &xs);

/** Geometric mean; fatal() on empty input or non-positive values. */
double geomean(const std::vector<double> &xs);

/**
 * The @p p-th percentile (0..100) by linear interpolation between
 * order statistics: rank = p/100 * (n-1). A one-element input returns
 * that element for any p; fatal() on empty input or p outside
 * [0, 100].
 */
double percentile(std::vector<double> xs, double p);

/** Clamp @p v into [lo, hi]. */
double clamp(double v, double lo, double hi);

/**
 * Smooth minimum of two positive rates via a p-norm:
 * smin(a,b) = (a^-p + b^-p)^(-1/p). Larger @p p approaches hard min;
 * p ~ 4..8 gives the rounded roofline knees seen in measured GPU data.
 */
double smoothMin(double a, double b, double p = 6.0);

} // namespace ena

#endif // ENA_UTIL_STATS_MATH_HH
