/**
 * @file
 * Analytic GPU performance model (the paper's "high-level simulator").
 *
 * For a node configuration H = (CU count, frequency, bandwidth) and a
 * kernel profile K, the model combines:
 *
 *  - a compute rate C = peak(H) * K.computeEfficiency scaled by the
 *    kernel's CU-count and frequency scaling exponents (the paper's
 *    GPGPU-scaling taxonomy [43]: kernels scale differently with CUs
 *    than with frequency),
 *  - a memory rate M = AI * min(bw_contended, latency-hiding cap), where
 *    bw_contended models cache thrash / network contention past the
 *    kernel's ops-per-byte knee (the Fig. 6 degradation) and the cap is
 *    a Little's-law limit from per-CU memory-level parallelism,
 *  - a smooth minimum of the two, giving the rounded roofline knees of
 *    the paper's Figs. 4-6.
 *
 * The same model evaluates the two-level-memory miss-rate study (Fig. 8)
 * by splitting traffic between in-package DRAM and the external network.
 */

#ifndef ENA_CORE_PERF_MODEL_HH
#define ENA_CORE_PERF_MODEL_HH

#include "common/activity.hh"
#include "common/node_config.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** Outcome of one (config, kernel) performance evaluation. */
struct PerfResult
{
    double flops = 0.0;         ///< achieved flops/s
    double computeRate = 0.0;   ///< compute roofline C (flops/s)
    double memoryRate = 0.0;    ///< memory roofline M (flops/s)
    double peakFlops = 0.0;     ///< n_cu * f * flops_per_cu_clk
    double trafficGbs = 0.0;    ///< achieved DRAM traffic
    double opsPerByte = 0.0;    ///< the paper's x-axis
    bool memoryBound = false;   ///< M < C

    /** Activity vector for the power model. */
    Activity activity;
};

class PerfModel
{
  public:
    PerfModel() = default;

    /** Evaluate one kernel on one hardware configuration. */
    PerfResult evaluate(const NodeConfig &cfg,
                        const KernelProfile &k) const;

    /**
     * Performance with a fraction @p miss_frac of memory requests
     * serviced by the external-memory network instead of in-package
     * DRAM (Fig. 8; the paper calls these "misses" without using the
     * in-package DRAM as a hardware cache).
     *
     * @return absolute achieved flops/s at the given miss fraction.
     */
    double evaluateWithMissRate(const NodeConfig &cfg,
                                const KernelProfile &k,
                                double miss_frac) const;

    /** Peak flops of a configuration (no efficiency losses). */
    static double peakFlops(const NodeConfig &cfg);

    /** Contention-degraded in-package bandwidth (GB/s). */
    static double contendedBandwidthGbs(const NodeConfig &cfg,
                                        const KernelProfile &k);

    /**
     * Little's-law sustainable external-memory rate (GB/s): outstanding
     * lines per CU (derated by latency sensitivity — irregular kernels
     * cannot keep their full MLP in flight on long-latency paths)
     * divided by the round-trip external latency.
     */
    static double externalRateGbs(const NodeConfig &cfg,
                                  const KernelProfile &k);

  private:
    /** Compute roofline including the scaling-taxonomy exponents. */
    static double computeRate(const NodeConfig &cfg,
                              const KernelProfile &k);

    /** Memory roofline for a given effective bandwidth. */
    static double memoryRate(double eff_bw_gbs, const KernelProfile &k);
};

} // namespace ena

#endif // ENA_CORE_PERF_MODEL_HH
