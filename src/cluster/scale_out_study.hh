/**
 * @file
 * Scale-out studies on top of ClusterEvaluator:
 *
 *  - weak/strong-scaling curves (system exaflops and communication
 *    efficiency vs node count),
 *  - a communication-aware variant of the paper's Fig. 14 CU sweep,
 *  - a topology x node-count sweep comparing fat-tree, dragonfly and
 *    3D-torus fabrics.
 *
 * Every sweep shards over ThreadPool::parallelMap with one output slot
 * per grid point, so results are bit-identical to a serial run at any
 * thread count (gated by bench_cluster_scaleout, like the PR 1 sweeps).
 */

#ifndef ENA_CLUSTER_SCALE_OUT_STUDY_HH
#define ENA_CLUSTER_SCALE_OUT_STUDY_HH

#include <string>
#include <vector>

#include "cluster/cluster_evaluator.hh"
#include "core/sweep_journal.hh"

namespace ena {

/** One node count on a scaling curve. */
struct ScalingPoint
{
    int nodes = 0;
    double analyticExaflops = 0.0; ///< zero-communication projection
    double systemExaflops = 0.0;   ///< comm-aware
    double efficiency = 0.0;       ///< compute fraction of wall time
    double overheadRatio = 0.0;    ///< comm seconds per compute second
    double systemMw = 0.0;
};

/** One CU count of the communication-aware Fig. 14 sweep. */
struct ClusterFig14Point
{
    int cus = 0;
    double analyticExaflops = 0.0; ///< == ExascaleProjector::sweepCus
    double analyticMw = 0.0;       ///< == ExascaleProjector::sweepCus
    double commExaflops = 0.0;     ///< communication-aware
    double commMw = 0.0;           ///< package + fabric power
    double efficiency = 0.0;
};

/** One (topology, node count) cell of the fabric comparison. */
struct TopologyPoint
{
    ClusterTopology topology = ClusterTopology::FatTree;
    int nodes = 0;
    double avgHops = 0.0;
    double bisectionGbs = 0.0;
    double efficiency = 0.0;
    double systemExaflops = 0.0;
    double systemMw = 0.0;

    /** False when the cell was quarantined; @p error says why. */
    bool ok = true;
    std::string error;
};

class ScaleOutStudy
{
  public:
    /** @p base supplies the link/shape parameters; each sweep varies
     *  the node count (and topology) on top of it. */
    ScaleOutStudy(const NodeEvaluator &eval, ClusterConfig base);

    /** Per-node problem fixed; ideal curve is flat efficiency. */
    std::vector<ScalingPoint> weakScaling(
        const NodeConfig &cfg, App app, CommSpec spec,
        const std::vector<int> &node_counts) const;

    /** Total problem fixed; efficiency decays as nodes are added. */
    std::vector<ScalingPoint> strongScaling(
        const NodeConfig &cfg, App app, CommSpec spec,
        const std::vector<int> &node_counts) const;

    /**
     * The paper's Fig. 14 CU sweep (MaxFlops, 1 GHz, 1 TB/s) with the
     * analytic and communication-aware projections side by side.
     */
    std::vector<ClusterFig14Point> fig14(const std::vector<int> &cus,
                                         const CommSpec &spec) const;

    /**
     * Fabric comparison over topologies x node counts (flattened,
     * topology-major, sharded over the process pool). Invalid cells
     * are quarantined (TopologyPoint::ok == false), not fatal; with
     * ENA_SWEEP_JOURNAL set, finished cells stream to the journal and
     * a killed sweep resumes past them.
     */
    std::vector<TopologyPoint> topologySweep(
        const NodeConfig &cfg, App app, const CommSpec &spec,
        const std::vector<ClusterTopology> &topologies,
        const std::vector<int> &node_counts) const;

    /** Same, with an explicit journal (null = no checkpointing). */
    std::vector<TopologyPoint> topologySweep(
        const NodeConfig &cfg, App app, const CommSpec &spec,
        const std::vector<ClusterTopology> &topologies,
        const std::vector<int> &node_counts,
        SweepJournal *journal) const;

    const ClusterConfig &baseConfig() const { return base_; }

  private:
    std::vector<ScalingPoint> scalingCurve(
        const NodeConfig &cfg, App app, CommSpec spec,
        const std::vector<int> &node_counts) const;

    const NodeEvaluator &eval_;
    ClusterConfig base_;
};

} // namespace ena

#endif // ENA_CLUSTER_SCALE_OUT_STUDY_HH
