#include "core/perf_model.hh"

#include <algorithm>
#include <cmath>

#include "common/calibration.hh"
#include "core/perf_terms.hh"
#include "util/logging.hh"
#include "util/stats_math.hh"
#include "util/units.hh"

namespace ena {

double
PerfModel::peakFlops(const NodeConfig &cfg)
{
    return perf_terms::peakFlops(cfg.cus, cfg.freqGhz);
}

double
PerfModel::computeRate(const NodeConfig &cfg, const KernelProfile &k)
{
    double peak = peakFlops(cfg);
    double cu_scale = perf_terms::cuScale(cfg.cus, k);
    double f_scale = perf_terms::freqScale(cfg.freqGhz, k);
    return perf_terms::computeRate(peak, k, cu_scale, f_scale);
}

double
PerfModel::contendedBandwidthGbs(const NodeConfig &cfg,
                                 const KernelProfile &k)
{
    // Contention (cache thrash, queueing) builds once the compute
    // demand outruns the bandwidth the kernel can actually consume:
    // provisioned bandwidth beyond the kernel's saturation point does
    // not relieve it, but reducing CU-count x frequency does (this is
    // what makes Table II's memory-intensive optima pick fewer CUs).
    double usable = perf_terms::usableBandwidthGbs(cfg.bwTbs, k);
    return perf_terms::contendedBandwidthGbs(cfg.cus, cfg.freqGhz,
                                             usable, k);
}

double
PerfModel::memoryRate(double eff_bw_gbs, const KernelProfile &k)
{
    return perf_terms::memoryRate(eff_bw_gbs, k);
}

double
PerfModel::externalRateGbs(const NodeConfig &cfg, const KernelProfile &k)
{
    double eff_mlp = k.memLevelParallelism * (1.0 - k.latencySensitivity);
    double rt_latency_s =
        (cal::inPkgLatencyNs + cal::extMemLatencyNs) * units::nano;
    double littles_gbs =
        cfg.cus * eff_mlp * cal::memAccessBytes / rt_latency_s /
        units::giga;
    return std::min(cfg.ext.aggregateGbs(), littles_gbs);
}

PerfResult
PerfModel::evaluate(const NodeConfig &cfg, const KernelProfile &k) const
{
    cfg.validate();

    // The whole evaluation lives in perf_terms::evaluatePerf so the
    // DSE's grid scorer (core/dse.cc) runs the identical operation
    // sequence; the scale factors and the usable-bandwidth term are
    // precomputed here exactly as the scorer's term tables hold them.
    double cu_scale = perf_terms::cuScale(cfg.cus, k);
    double f_scale = perf_terms::freqScale(cfg.freqGhz, k);
    double usable = perf_terms::usableBandwidthGbs(cfg.bwTbs, k);
    return perf_terms::evaluatePerf(cfg.cus, cfg.freqGhz, cfg.bwTbs, k,
                                    cu_scale, f_scale, usable);
}

double
PerfModel::evaluateWithMissRate(const NodeConfig &cfg,
                                const KernelProfile &k,
                                double miss_frac) const
{
    ENA_ASSERT(miss_frac >= 0.0 && miss_frac <= 1.0,
               "miss fraction must be in [0,1], got ", miss_frac);
    cfg.validate();

    double c = computeRate(cfg, k);

    // In-package service rate (as in evaluate()).
    double b_in = contendedBandwidthGbs(cfg, k);

    // External service rate: SerDes bandwidth or the latency-hiding
    // limit, whichever is lower — and never better than the in-package
    // path, which external data must still traverse.
    double b_ext = std::min(externalRateGbs(cfg, k), b_in);

    // Weighted-harmonic effective bandwidth: each byte takes
    // (1-m)/b_in + m/b_ext seconds per GB.
    double inv = (1.0 - miss_frac) / b_in + miss_frac / b_ext;
    double eff_bw = 1.0 / inv;
    double m = memoryRate(eff_bw, k);

    return smoothMin(c, m, perf_terms::rooflineNorm);
}

} // namespace ena
