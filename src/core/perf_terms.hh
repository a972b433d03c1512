/**
 * @file
 * The performance model's arithmetic, factored into inline term
 * functions shared verbatim by the scalar oracle (PerfModel::evaluate)
 * and the DSE's grid scorer (DseGridScorer, core/dse.hh).
 *
 * Both paths execute the *same* IEEE-754 operation sequence on the
 * same inputs, which is what makes grid scores bit-identical to
 * scalar ones. Each term's parameter list names exactly the NodeConfig
 * fields it reads, so the scorer may compute a term once per distinct
 * axis value and reuse it across grid points: recomputing it would
 * produce the same bits.
 *
 * Do not "simplify" the expressions here: reassociating a product or
 * hoisting a division changes the rounding sequence and breaks the
 * bit-identity gates in the DseGridScorer and Dse tests.
 */

#ifndef ENA_CORE_PERF_TERMS_HH
#define ENA_CORE_PERF_TERMS_HH

#include <algorithm>
#include <cmath>

#include "common/activity.hh"
#include "common/calibration.hh"
#include "core/perf_model.hh"
#include "util/stats_math.hh"
#include "util/units.hh"
#include "workloads/kernel_profile.hh"

namespace ena {
namespace perf_terms {

/** Reference point for the scaling-taxonomy exponents. */
constexpr double refCus = 320.0;
constexpr double refGhz = 1.0;

/** Smooth-min norm: gives the rounded roofline knees of Figs. 4-6. */
constexpr double rooflineNorm = 8.0;

/** NoC traffic amplification over DRAM traffic (coherence, replies). */
constexpr double nocAmplification = 1.2;

/** Peak flops. Reads: cus, freqGhz. */
inline double
peakFlops(int cus, double freq_ghz)
{
    return cus * freq_ghz * units::giga * cal::flopsPerCuClk;
}

/** CU-count scaling factor of the compute roofline. Reads: cus. */
inline double
cuScale(int cus, const KernelProfile &k)
{
    return std::pow(cus / refCus, k.cuScalingExp - 1.0);
}

/** Frequency scaling factor of the compute roofline. Reads: freqGhz. */
inline double
freqScale(double freq_ghz, const KernelProfile &k)
{
    return std::pow(freq_ghz / refGhz, k.freqScalingExp - 1.0);
}

/** Compute roofline from precomputed peak and scale factors. */
inline double
computeRate(double peak, const KernelProfile &k, double cu_scale,
            double f_scale)
{
    return peak * k.computeEfficiency * cu_scale * f_scale;
}

/** Bandwidth the kernel can actually consume (GB/s). Reads: bwTbs. */
inline double
usableBandwidthGbs(double bw_tbs, const KernelProfile &k)
{
    return std::min(bw_tbs, k.maxBandwidthTbs) * 1000.0;
}

/**
 * Contention-degraded in-package bandwidth (GB/s).
 * Reads: cus, freqGhz, and (via @p usable_gbs) bwTbs.
 *
 * Contention (cache thrash, queueing) builds once the compute demand
 * outruns the bandwidth the kernel can actually consume; thrash
 * saturates at cal::maxContentionFactor (row-buffer / MSHR recycling).
 */
inline double
contendedBandwidthGbs(int cus, double freq_ghz, double usable_gbs,
                      const KernelProfile &k)
{
    double opb_eff = cus * freq_ghz / usable_gbs;
    double over = std::max(0.0, opb_eff - k.contentionKnee);
    double factor = 1.0 + k.contentionAlpha * over * over;
    return usable_gbs / std::min(factor, cal::maxContentionFactor);
}

/** Memory roofline for a given effective bandwidth. */
inline double
memoryRate(double eff_bw_gbs, const KernelProfile &k)
{
    return eff_bw_gbs * units::giga * k.arithmeticIntensity;
}

/** Achieved DRAM traffic at an achieved flops rate. Reads: bwTbs. */
inline double
achievedTrafficGbs(double flops, double bw_tbs, const KernelProfile &k)
{
    return std::min(flops / k.arithmeticIntensity / units::giga,
                    bw_tbs * 1000.0);
}

/** Fill the Activity vector from an achieved performance point. */
inline Activity
makeActivity(double bw_tbs, const KernelProfile &k, double flops,
             double peak)
{
    Activity a;
    a.cuUtilization = clamp(flops / peak, 0.0, 1.0);
    a.cuIdleActivity = k.cuIdleActivity;
    double traffic_gbs = achievedTrafficGbs(flops, bw_tbs, k);
    a.inPkgTrafficGbs = traffic_gbs;
    a.extTrafficGbs = k.extTrafficFraction * traffic_gbs;
    a.nocTrafficGbs = traffic_gbs * nocAmplification *
                      (1.0 + 0.5 * k.sharedFraction);
    a.writeFraction = k.writeFraction;
    a.compressRatio = k.compressRatio;
    a.cpuActivity = 0.25;
    return a;
}

/**
 * One side of the smooth-min roofline: pow(rate, -rooflineNorm). The
 * compute side depends only on (cus, freqGhz) per kernel, so the grid
 * scorer computes it once per (CU, frequency) pair.
 */
inline double
rooflinePow(double rate)
{
    return std::pow(rate, -rooflineNorm);
}

/**
 * smoothMin(a, b, rooflineNorm) with pow(a, -rooflineNorm) already in
 * hand: the identical operation sequence as util's smoothMin (the two
 * pow() inputs and the sum are the same doubles), so the result is
 * bit-identical whether @p pow_a was just computed or cached.
 */
inline double
smoothMinPre(double pow_a, double b)
{
    return std::pow(pow_a + rooflinePow(b), -1.0 / rooflineNorm);
}

/**
 * Composite: one full performance evaluation from precomputed
 * reusable terms. peak, compute_rate, pow_compute, and usable_gbs
 * must have been produced by peakFlops/computeRate/rooflinePow/
 * usableBandwidthGbs for the same (cus, freq_ghz, bw_tbs, k) —
 * possibly served from a term cache, which is bit-identical by
 * construction.
 *
 * The statement order mirrors PerfModel::evaluate() exactly.
 */
inline PerfResult
evaluatePerfPre(int cus, double freq_ghz, double bw_tbs,
                const KernelProfile &k, double peak, double compute_rate,
                double pow_compute, double usable_gbs)
{
    PerfResult r;
    r.peakFlops = peak;
    r.opsPerByte = cus * freq_ghz / (bw_tbs * 1000.0);
    r.computeRate = compute_rate;

    double eff_bw = contendedBandwidthGbs(cus, freq_ghz, usable_gbs, k);
    r.memoryRate = memoryRate(eff_bw, k);

    r.flops = smoothMinPre(pow_compute, r.memoryRate);
    r.memoryBound = r.memoryRate < r.computeRate;
    r.trafficGbs = achievedTrafficGbs(r.flops, bw_tbs, k);
    r.activity = makeActivity(bw_tbs, k, r.flops, r.peakFlops);
    return r;
}

/** Same, deriving the (cus, freq)-only factors inline. */
inline PerfResult
evaluatePerf(int cus, double freq_ghz, double bw_tbs,
             const KernelProfile &k, double cu_scale, double f_scale,
             double usable_gbs)
{
    double peak = peakFlops(cus, freq_ghz);
    double compute_rate = computeRate(peak, k, cu_scale, f_scale);
    return evaluatePerfPre(cus, freq_ghz, bw_tbs, k, peak, compute_rate,
                           rooflinePow(compute_rate), usable_gbs);
}

} // namespace perf_terms
} // namespace ena

#endif // ENA_CORE_PERF_TERMS_HH
