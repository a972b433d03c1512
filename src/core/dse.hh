/**
 * @file
 * Design-space exploration (paper Section V intro, Section VI, Table II).
 *
 * Sweeps CU count x GPU frequency x in-package bandwidth (the paper's
 * "over a thousand different hardware configurations"), then finds
 *
 *  - the best-mean configuration: highest geometric-mean performance
 *    across all applications with the across-application mean of the
 *    budget-scope node power held under 160 W, and
 *  - the best per-application configuration: highest performance for a
 *    single kernel with that kernel's own budget-scope power under
 *    160 W (Table II's oracle reconfiguration).
 */

#ifndef ENA_CORE_DSE_HH
#define ENA_CORE_DSE_HH

#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/node_config.hh"
#include "core/eval_memo.hh"
#include "core/node_evaluator.hh"
#include "power/power_terms.hh"
#include "util/status.hh"
#include "workloads/kernel_profile.hh"

namespace ena {

/** The swept axes. */
struct DseGrid
{
    std::vector<int> cus;
    std::vector<double> freqsGhz;
    std::vector<double> bwsTbs;

    /**
     * The paper's sweep: CUs 192..384 step 32 (area budget 384),
     * frequency 0.7..1.5 GHz step 100 MHz plus the 925 MHz point that
     * appears in Table II, bandwidth 1..7 TB/s.
     */
    static DseGrid paperGrid();

    size_t
    size() const
    {
        return cus.size() * freqsGhz.size() * bwsTbs.size();
    }

    /**
     * The point at flat index @p i, row-major over (cus, freq, bw):
     * the enumeration order of the original serial triple loop, so
     * index-order reductions reproduce its results exactly.
     */
    NodeConfig at(std::size_t i, const PowerOptConfig &opts) const;
};

/**
 * Points per ThreadPool chunk when @p n points are swept on @p threads
 * workers: large enough that a chunk amortizes its dispatch, small
 * enough that every worker gets several chunks. The explorer and the
 * server's sweep op both chunk with it.
 */
std::size_t sweepChunkSize(std::size_t n, int threads);

/** The most values one axis sweep may have (trySweepValues). */
constexpr std::size_t kMaxSweepPoints = 1000000;

/**
 * The values of a one-axis sweep: @p from, then repeated `v += step`
 * while v <= to + 1e-9 — the sequence sweep_tool and the server's
 * sweep op both evaluate and print. OutOfRange when @p step is not
 * positive, an end is not finite or to < from, and when the sweep has
 * more than kMaxSweepPoints values: enumeration stops at that cap, so
 * a step too small to advance v cannot run without bound.
 */
Expected<std::vector<double>> trySweepValues(double from, double to,
                                             double step);

/**
 * @p base with one knob set to each of @p values, in order: the points
 * of a one-axis sweep. @p axis is "cus" (the value truncated to an
 * int), "freq" (GHz) or "bw" (TB/s). InvalidArgument on any other axis;
 * the first point that fails NodeConfig::tryValidate() is the error,
 * as "sweep point i (value v): ...".
 */
Expected<std::vector<NodeConfig>> trySweepConfigs(
    const NodeConfig &base, const std::string &axis,
    const std::vector<double> &values);

/**
 * Scores written by DseGridScorer::score(), stored by grid index:
 * every application's flops, in allApps() order, and its budget-scope
 * power under each of the scorer's settings, in their list order.
 */
class GridScores
{
  public:
    GridScores(std::size_t points, std::size_t apps, std::size_t settings)
        : points_(points), apps_(apps),
          flops_(points * apps), budgetPowerW_(points * apps * settings)
    {
    }

    double
    flops(std::size_t app, std::size_t i) const
    {
        return flops_[app * points_ + i];
    }

    double &
    flops(std::size_t app, std::size_t i)
    {
        return flops_[app * points_ + i];
    }

    /** Every flops slot, [app][point]: what a power-only score() reads. */
    const std::vector<double> &flopsTable() const { return flops_; }

    double
    budgetPowerW(std::size_t setting, std::size_t app, std::size_t i) const
    {
        return budgetPowerW_[(setting * apps_ + app) * points_ + i];
    }

    double &
    budgetPowerW(std::size_t setting, std::size_t app, std::size_t i)
    {
        return budgetPowerW_[(setting * apps_ + app) * points_ + i];
    }

  private:
    std::size_t points_;
    std::size_t apps_;
    std::vector<double> flops_;
    std::vector<double> budgetPowerW_;
};

/**
 * Prices DseGrid points for every application under a list of power
 * settings: the DSE's evaluation engine.
 *
 * Every pow()-heavy term of the model reads one axis value or one
 * (CU, frequency) pair, so the constructor computes each of them once
 * per search, from the grid's axes, with the same perf_terms /
 * power_terms functions the scalar evaluator calls: per application
 * the CU scale, frequency scale and usable bandwidth of every axis
 * value and the peak, compute rate and roofline pow of every (CU,
 * frequency) pair; per setting the V/f scales of every frequency; the
 * HBM static power of every bandwidth. score() then makes one
 * perf_terms::evaluatePerfPre call per (point, application), whose
 * result no power optimization changes, and one
 * power_terms::evaluatePower call per setting on top of it. A scorer
 * given the flops an earlier one priced skips the performance terms:
 * perf_terms::makeActivity rebuilds each activity from the flops, as
 * evaluatePerfPre builds it, and only power is priced.
 *
 * Same inputs, same functions, same operation order: every score is
 * bit-identical to NodeEvaluator::evaluate on DseGrid::at(i, setting),
 * the reference oracle. Points are the grid's knobs on a default
 * NodeConfig, as the explorer enumerates them.
 */
class DseGridScorer
{
  public:
    /** With @p flops, the flopsTable() an earlier scorer filled for
     *  the points this one scores, score() copies their flops from it
     *  and prices only power. @p flops must outlive the scorer. */
    DseGridScorer(const NodeEvaluator &eval, const DseGrid &grid,
                  std::vector<PowerOptConfig> settings,
                  const std::vector<double> *flops = nullptr);

    /** Empty slots for every grid point, shaped for score(). */
    GridScores
    makeScores() const
    {
        return GridScores(grid_.size(), profiles_.size(), settings_.size());
    }

    /**
     * Score the grid points at @p indices into their slots of @p out.
     * Disjoint index lists may be scored concurrently into one @p out.
     * A point that fails NodeConfig validation is fatal with the
     * scalar evaluator's diagnostic. A scorer that prices flops counts
     * one node.evaluations per (point, application).
     */
    void score(std::span<const std::size_t> indices,
               GridScores &out) const;

  private:
    DseGrid grid_;
    std::vector<PowerOptConfig> settings_;
    const std::vector<double> *flops_;   ///< null: price flops too
    NodeConfig base_;   ///< every field the grid does not sweep

    std::vector<const KernelProfile *> profiles_;   ///< [app]
    std::vector<bool> cuOk_, freqOk_, bwOk_;        ///< axis validity
    std::vector<double> peak_;          ///< [cu][freq]
    std::vector<double> computeRate_;   ///< [app][cu][freq]
    std::vector<double> powCompute_;    ///< [app][cu][freq]
    std::vector<double> usableGbs_;     ///< [app][bw]
    std::vector<power_terms::VfScales> vf_;   ///< [setting][freq]
    std::vector<double> hbmStaticW_;    ///< [bw]
    power_terms::ExtStatic extStatic_;
};

/** One candidate's scores. */
struct DsePoint
{
    NodeConfig cfg;
    double geomeanFlops = 0.0;
    double meanBudgetPowerW = 0.0;
    double maxBudgetPowerW = 0.0;   ///< worst application's budget power
    bool feasible = false;          ///< maxBudgetPowerW <= budget

    /** False when the config failed validation and the point was
     *  quarantined: @p error says why, it scores zero, never feasible. */
    bool ok = true;
    std::string error;
};

/** Best configuration for a single application. */
struct AppBest
{
    NodeConfig cfg;
    double flops = 0.0;
    double budgetPowerW = 0.0;
};

/** One Table II row. */
struct TableIIRow
{
    App app;
    NodeConfig bestConfig;           ///< without power optimizations
    double benefitNoOptPct = 0.0;    ///< perf gain over best-mean config
    NodeConfig bestConfigOpt;        ///< with power optimizations
    double benefitWithOptPct = 0.0;  ///< gain incl. optimizations, vs the
                                     ///< no-opt best-mean config
};

/**
 * All sweeps run on the process-wide ThreadPool (ENA_THREADS); results
 * are deterministic and identical to a single-threaded run because
 * every grid point is scored independently into its own slot and all
 * argmax reductions happen on the caller in grid-enumeration order.
 *
 * Every search builds one DseGridScorer and scores its points in
 * sweepChunkSize() chunks on the pool. The first search to complete
 * keeps every application's flops at every valid grid point, which no
 * power optimization changes; later searches price only power from
 * them. Searches may run concurrently; an explorer cannot be copied.
 * sweep() quarantines an invalid grid point (core/sweep_cell.hh); the
 * other searches stay fatal on it.
 */
class DesignSpaceExplorer
{
  public:
    DesignSpaceExplorer(const NodeEvaluator &eval, DseGrid grid,
                        double budget_w);

    /**
     * Score every grid point (for inspection / calibration). Invalid
     * points are quarantined (DsePoint::ok == false), not fatal. Only
     * perfbench passes the unnamed second argument, a null pointer,
     * until ROADMAP item 2 moves it off.
     */
    std::vector<DsePoint> sweep(const PowerOptConfig &opts,
                                std::nullptr_t = nullptr) const;

    /**
     * Highest geomean-performance configuration whose worst-case
     * (max-over-applications) budget power stays under the budget.
     * fatal() when no grid point satisfies it.
     */
    NodeConfig findBestMean(const PowerOptConfig &opts) const;

    /** Highest-performance feasible configuration for one kernel. */
    AppBest findBestForApp(App app, const PowerOptConfig &opts) const;

    /**
     * Reproduce Table II: per-application best configs and their
     * performance benefit over the given best-mean configuration,
     * without and with the Section V-E power optimizations. One pass
     * prices every point under both settings; each row is then the
     * findBestForApp argmax of its (app, setting) columns.
     */
    std::vector<TableIIRow> tableII(const NodeConfig &best_mean) const;

    const DseGrid &grid() const { return grid_; }

    /** Retired (see core/eval_memo.hh): its counters always read 0. */
    const EvalMemoCache &
    memoCache() const
    {
        return EvalMemoCache::sharedInstance();
    }

  private:
    /**
     * Score @p points under @p settings in sweepChunkSize() chunks on
     * the pool, calling @p fold(scores, chunk) after each chunk: from
     * the kept flops, or, before any are kept, pricing flops too and
     * keeping them.
     */
    template <typename Fold>
    GridScores price(std::vector<PowerOptConfig> settings,
                     const std::vector<std::size_t> &points,
                     Fold &&fold) const;

    /** price() every grid point, with no fold (whole-grid searches). */
    GridScores priceGrid(std::vector<PowerOptConfig> settings) const;

    /**
     * Argmax of one scored (app, setting) column: points over budget
     * are skipped, '>' keeps the lowest index on ties. fatal() when no
     * point fits.
     */
    AppBest bestFeasible(const GridScores &scores, std::size_t app_pos,
                         std::size_t setting_pos, App app,
                         const PowerOptConfig &opts) const;

    const NodeEvaluator &eval_;
    DseGrid grid_;
    double budgetW_;
    /** The kept flops, [app][point]: written once, then only read. */
    mutable std::vector<double> flops_;
    mutable std::atomic<bool> haveFlops_{false};   ///< flops_ is written
    mutable std::mutex flopsMutex_;   ///< orders the one write of flops_
};

} // namespace ena

#endif // ENA_CORE_DSE_HH
