/**
 * @file
 * Fault-aware scale-out projection: the layer that joins src/ras/ and
 * src/cluster/ (paper Section II-A5 meets Section V-F).
 *
 * ClusterEvaluator already derates the Fig. 14 projection by
 * communication cost; this module multiplies the machine's resiliency
 * overheads on top of it:
 *
 *   FaultModel (protection choices -> per-node FIT)
 *     -> systemMttfHours (1/N scaling to the full machine)
 *       -> CheckpointModel (Young/Daly plan -> machine efficiency)
 *   RmtModel (GPU redundant multithreading -> slowdown)
 *
 *   effective exaflops = comm-aware exaflops
 *                        * checkpoint efficiency / RMT slowdown
 *
 * The composition preserves the exact-reduction discipline the cluster
 * layer established: a zero-fault / zero-RMT ResilienceSpec multiplies
 * by exactly 1.0 and divides by exactly 1.0, so it reproduces
 * ClusterEvaluator::evaluate's system exaflops and megawatts
 * bit-identically (gated by bench_ras_scaleout).
 *
 * The checkpoint drain bandwidth can optionally be derived from the
 * InterNodeNetwork instead of the fixed CheckpointParams::ioBandwidthBps
 * knob: checkpoints ride the fabric to the I/O nodes, every node drains
 * at once, so the sustainable rate is the all-to-all deliverable
 * bandwidth (min of injection and the per-node bisection share).
 */

#ifndef ENA_CLUSTER_RESILIENT_CLUSTER_HH
#define ENA_CLUSTER_RESILIENT_CLUSTER_HH

#include <string>
#include <vector>

#include "cluster/cluster_evaluator.hh"
#include "ras/checkpoint.hh"
#include "ras/fault_model.hh"
#include "ras/rmt.hh"
#include "util/status.hh"

namespace ena {

/**
 * Everything the resiliency layer adds to a cluster evaluation:
 * protection choices, the RMT policy, and the checkpoint/restart
 * parameters. Loadable from "cluster.ras." config keys
 * (resilient_cluster_io.hh).
 */
struct ResilienceSpec
{
    /**
     * Master switch for the fault/checkpoint pipeline. False models an
     * ideal never-failing machine: no checkpoints are planned and the
     * efficiency factor is exactly 1.0 (the bit-identical reduction to
     * ClusterEvaluator when rmtPolicy is also Off).
     */
    bool faultsEnabled = true;

    RasConfig ras;                      ///< ECC/RMT protection choices
    RmtPolicy rmtPolicy = RmtPolicy::Off;
    CheckpointParams checkpoint;

    /**
     * Derive the checkpoint drain bandwidth from the inter-node
     * network (all nodes drain to the I/O nodes across the fabric at
     * the all-to-all deliverable rate) instead of using the fixed
     * checkpoint.ioBandwidthBps knob.
     */
    bool checkpointViaFabric = false;

    /** Zero-fault / zero-RMT: reduces to ClusterEvaluator exactly. */
    static ResilienceSpec
    none()
    {
        ResilienceSpec s;
        s.faultsEnabled = false;
        s.ras = {false, false, false, 1.0};
        s.rmtPolicy = RmtPolicy::Off;
        return s;
    }

    /**
     * The paper's proposal (Section II-A5): ECC on every array plus
     * software RMT on the GPU's idle resources, with the FaultModel's
     * gpuRmt residual matched to the active policy.
     */
    static ResilienceSpec
    paper()
    {
        ResilienceSpec s;
        s.ras = {true, true, true, 2.0};
        s.rmtPolicy = RmtPolicy::Opportunistic;
        return s;
    }

    /** The largest NTC SER multiplier accepted, far above any
     *  measured one (the specs here use 2). One near DBL_MAX made the
     *  node's FIT infinite and the machine's MTTF zero. */
    static constexpr double maxNtcSerMultiplier = 1e6;

    /** Sanity-check ranges; the error names the offending knob. */
    Status
    tryValidate() const
    {
        if (!(ras.ntcSerMultiplier >= 1.0 &&
              ras.ntcSerMultiplier <= maxNtcSerMultiplier)) {
            return Status::outOfRange(
                "ResilienceSpec: NTC SER multiplier must be in [1, ",
                maxNtcSerMultiplier, "], got ", ras.ntcSerMultiplier);
        }
        if (checkpoint.checkpointBytes < 1.0 ||
            checkpoint.ioBandwidthBps <= 0.0)
            return Status::outOfRange(
                "ResilienceSpec: bad checkpoint parameters");
        if (checkpoint.overheadS < 0.0 || checkpoint.restartExtraS < 0.0) {
            return Status::outOfRange(
                "ResilienceSpec: checkpoint overhead and restart time "
                "must be >= 0, got ",
                checkpoint.overheadS, " and ", checkpoint.restartExtraS,
                " s");
        }
        return Status();
    }

    /** Legacy flavor: fatal() on nonsense. */
    void validate() const { checkOrFatal(tryValidate()); }
};

/** One (node config, app, comm spec, resilience spec) evaluation. */
struct ResilientResult
{
    ClusterResult cluster;          ///< comm-aware baseline underneath

    double nodeFit = 0.0;           ///< protected FIT per node
    double systemMttfHours = 0.0;   ///< uncorrected errors, full machine
    /**
     * MTTF of *user-visible* interruptions: uncorrected errors that
     * also escape detection (silent corruption) force human
     * intervention, while detected failures restart from checkpoint
     * automatically. The paper's target for this is "on the order of a
     * week or more".
     */
    double interruptionMttfHours = 0.0;

    double drainBps = 0.0;          ///< resolved checkpoint bandwidth
    CheckpointPlan plan;            ///< zeroed when faults are disabled
    RmtOutcome rmt;                 ///< slowdown 1.0 when policy is Off

    double ckptEfficiency = 1.0;    ///< exactly 1.0 with faults off
    double rmtSlowdown = 1.0;       ///< exactly 1.0 with RMT off

    double effectiveExaflops = 0.0; ///< comm * ckpt / RMT
    double systemMw = 0.0;          ///< == cluster.systemMw

    double
    effectiveExaflopsPerMw() const
    {
        return systemMw > 0.0 ? effectiveExaflops / systemMw : 0.0;
    }
};

class ResilientClusterEvaluator
{
  public:
    ResilientClusterEvaluator(const ClusterEvaluator &ce,
                              ResilienceSpec spec);

    /** Evaluate one app on one node config, resiliency included. */
    ResilientResult evaluate(const NodeConfig &cfg, App app,
                             const CommSpec &comm) const;

    /**
     * The per-node checkpoint drain bandwidth this spec resolves to:
     * the fabric's all-to-all deliverable rate when checkpointViaFabric
     * is set, the fixed ioBandwidthBps knob otherwise.
     */
    double checkpointDrainBps() const;

    const ResilienceSpec &spec() const { return spec_; }

  private:
    const ClusterEvaluator &ce_;
    ResilienceSpec spec_;
    FaultModel fm_;
    RmtModel rmt_;
};

/** A named protection configuration for sweeps and tables. */
struct ProtectionVariant
{
    std::string name;
    ResilienceSpec spec;
};

/**
 * The bench_ras_study ladder as ResilienceSpecs: no protection, ECC
 * only, ECC + opportunistic GPU RMT (the paper's proposal).
 */
const std::vector<ProtectionVariant> &standardProtectionVariants();

/** One cell of the protection x topology x node-count sweep. */
struct ResilientSweepPoint
{
    std::size_t variant = 0;        ///< index into the variant list
    ClusterTopology topology = ClusterTopology::FatTree;
    int nodes = 0;

    double systemMttfHours = 0.0;
    double interruptionMttfHours = 0.0;
    double commEfficiency = 0.0;
    double ckptEfficiency = 0.0;
    double rmtSlowdown = 1.0;
    double systemExaflops = 0.0;    ///< comm-aware, before resiliency
    double effectiveExaflops = 0.0;
    double systemMw = 0.0;

    /** False when the cell was quarantined; @p error says why. */
    bool ok = true;
    std::string error;
};

class ResilientScaleOutStudy
{
  public:
    /** @p base supplies link/shape parameters; sweeps vary the node
     *  count, topology, and protection on top of it. */
    ResilientScaleOutStudy(const NodeEvaluator &eval, ClusterConfig base);

    /**
     * Protection x topology x node-count sweep, flattened
     * variant-major then topology-major, sharded over the process pool
     * with one output slot per grid point (bit-identical to a serial
     * run at any thread count; gated by bench_ras_scaleout). runSweepCell
     * quarantines an invalid or throwing cell (ok == false).
     */
    std::vector<ResilientSweepPoint> sweep(
        const NodeConfig &cfg, App app, const CommSpec &comm,
        const std::vector<ProtectionVariant> &variants,
        const std::vector<ClusterTopology> &topologies,
        const std::vector<int> &node_counts) const;

    /** Availability and power constraints for the best-config search. */
    struct SearchConstraints
    {
        /** Paper Section II-A5: user-visible interruptions "on the
         *  order of a week or more". */
        double minInterruptionMttfHours = 168.0;
        /** Paper's per-node power budget (worst app; Section V-A). */
        double nodePowerBudgetW = 160.0;
    };

    /** Winner of the availability-constrained search. */
    struct SearchResult
    {
        bool feasible = false;          ///< any candidate satisfied both
        NodeConfig config;
        std::size_t variant = 0;
        int nodes = 0;
        double maxBudgetPowerW = 0.0;   ///< worst-app node power
        ResilientResult result;
    };

    /**
     * Max effective exaflops over node configs x protection variants x
     * machine sizes, subject to the interruption-MTTF and node-power
     * constraints. All candidates evaluate in parallel (one slot per
     * candidate); the arg-max scan runs serially in index order with a
     * strict comparison, so ties break toward the earliest candidate
     * and the result is deterministic at any thread count.
     */
    SearchResult bestUnderAvailability(
        const std::vector<NodeConfig> &configs,
        const std::vector<ProtectionVariant> &variants,
        const std::vector<int> &node_counts, App app,
        const CommSpec &comm, const SearchConstraints &limits) const;

    /** Same search with the paper's default constraints. */
    SearchResult bestUnderAvailability(
        const std::vector<NodeConfig> &configs,
        const std::vector<ProtectionVariant> &variants,
        const std::vector<int> &node_counts, App app,
        const CommSpec &comm) const
    {
        return bestUnderAvailability(configs, variants, node_counts, app,
                                     comm, SearchConstraints());
    }

  private:
    const NodeEvaluator &eval_;
    ClusterConfig base_;
};

} // namespace ena

#endif // ENA_CLUSTER_RESILIENT_CLUSTER_HH
