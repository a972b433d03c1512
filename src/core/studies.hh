/**
 * @file
 * The paper's node-level studies, packaged as reusable drivers:
 *
 *  - MissRateStudy      (Fig. 8): performance vs in-package miss rate
 *  - ExternalMemoryStudy(Fig. 9): power breakdown, DRAM-only vs hybrid
 *  - OpbSweepStudy  (Figs. 4-6): perf vs ops-per-byte, per bandwidth
 *  - ExascaleProjector (Fig. 14): node -> 100,000-node system scaling
 *  - PerfPerWattStudy  (Fig. 13): efficiency gain from power opts
 */

#ifndef ENA_CORE_STUDIES_HH
#define ENA_CORE_STUDIES_HH

#include <string>
#include <vector>

#include "common/node_config.hh"
#include "core/node_evaluator.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

// --------------------------------------------------------------------
// Fig. 4-6: performance as bandwidth and CU frequency / CU count vary.
// --------------------------------------------------------------------

/** One point of an ops-per-byte sweep curve. */
struct OpbPoint
{
    NodeConfig cfg;
    double opsPerByte = 0.0;
    double normPerf = 0.0;   ///< normalized to the best-mean config
};

/** One bandwidth's curve. */
struct OpbCurve
{
    double bwTbs = 0.0;
    std::vector<OpbPoint> points;
};

class OpbSweepStudy
{
  public:
    OpbSweepStudy(const NodeEvaluator &eval, NodeConfig best_mean);

    /**
     * Sub-figure (a): fix the CU count at the best-mean value and sweep
     * GPU frequency over @p freqs for each bandwidth in @p bws.
     */
    std::vector<OpbCurve> sweepFrequency(
        App app, const std::vector<double> &bws,
        const std::vector<double> &freqs) const;

    /**
     * Sub-figure (b): fix the frequency at the best-mean value and
     * sweep CU count over @p cus for each bandwidth in @p bws.
     */
    std::vector<OpbCurve> sweepCuCount(App app,
                                       const std::vector<double> &bws,
                                       const std::vector<int> &cus) const;

    /** The paper's bandwidth series: 1, 3, 4, 5, 6, 7 TB/s. */
    static std::vector<double> paperBandwidths();

  private:
    const NodeEvaluator &eval_;
    NodeConfig bestMean_;
};

// --------------------------------------------------------------------
// Fig. 8: in-package DRAM miss-rate sensitivity.
// --------------------------------------------------------------------

struct MissRatePoint
{
    double missRate = 0.0;
    double normPerf = 0.0;   ///< relative to zero misses
};

struct MissRateSeries
{
    App app;
    std::vector<MissRatePoint> points;
};

class MissRateStudy
{
  public:
    MissRateStudy(const NodeEvaluator &eval, NodeConfig cfg);

    /** Curves for all applications at rates {0, 0.2, ..., 1.0}. */
    std::vector<MissRateSeries> run() const;

    /** One application at arbitrary rates. */
    MissRateSeries run(App app, const std::vector<double> &rates) const;

  private:
    const NodeEvaluator &eval_;
    NodeConfig cfg_;
};

// --------------------------------------------------------------------
// Fig. 9: external-memory configuration power comparison.
// --------------------------------------------------------------------

/** One stacked bar of Fig. 9. */
struct ExtMemBar
{
    App app;
    std::string configName;  ///< "3D DRAM only" / "3D DRAM + NVM"
    PowerBreakdown power;
};

class ExternalMemoryStudy
{
  public:
    ExternalMemoryStudy(const NodeEvaluator &eval, NodeConfig cfg);

    /** All apps x {DRAM-only, hybrid}. */
    std::vector<ExtMemBar> run() const;

  private:
    const NodeEvaluator &eval_;
    NodeConfig cfg_;
};

// --------------------------------------------------------------------
// Fig. 13: performance-per-watt improvement from power optimizations.
// --------------------------------------------------------------------

struct PerfPerWattRow
{
    App app;
    double basePerfPerWatt = 0.0;  ///< no-opt best-mean config
    double optPerfPerWatt = 0.0;   ///< optimized best-mean config
    double improvementPct = 0.0;
};

class PerfPerWattStudy
{
  public:
    PerfPerWattStudy(const NodeEvaluator &eval, NodeConfig base_cfg,
                     NodeConfig opt_cfg);

    std::vector<PerfPerWattRow> run() const;

  private:
    const NodeEvaluator &eval_;
    NodeConfig baseCfg_;
    NodeConfig optCfg_;
};

// --------------------------------------------------------------------
// Fig. 14: exascale system projection.
// --------------------------------------------------------------------

struct ExascalePoint
{
    int cus = 0;
    double systemExaflops = 0.0;
    double systemMw = 0.0;
};

class ExascaleProjector
{
  public:
    explicit ExascaleProjector(const NodeEvaluator &eval,
                               int nodes = 100000);

    /**
     * Fig. 14's sweep: MaxFlops at 1 GHz / 1 TB/s while varying the CU
     * count. System power counts the processor package (the paper's
     * peak-compute scenario excludes external-memory components).
     */
    std::vector<ExascalePoint> sweepCus(const std::vector<int> &cus) const;

    /** One node config + app -> system exaflops. */
    double systemExaflops(const NodeConfig &cfg, App app) const;

    /** One node config + app -> system megawatts (package scope). */
    double systemMw(const NodeConfig &cfg, App app) const;

    /**
     * Projection from an already-evaluated node result: lets callers
     * holding an EvalResult (e.g. ClusterEvaluator) project without a
     * redundant node evaluation; identical bits to the (cfg, app)
     * overloads for the matching result.
     */
    double
    systemExaflops(const EvalResult &r) const
    {
        return r.perf.flops * nodes_ / 1e18;
    }

    double
    systemMw(const EvalResult &r) const
    {
        return r.power.packagePower() * nodes_ / 1e6;
    }

    int nodes() const { return nodes_; }

  private:
    const NodeEvaluator &eval_;
    int nodes_;
};

} // namespace ena

#endif // ENA_CORE_STUDIES_HH
