/**
 * @file
 * System-level evaluation of a scale-out ENA machine: composes
 * NodeEvaluator node perf/power with inter-node communication cost
 * into system exaflops and megawatts.
 *
 * The node-only projection is delegated to core's ExascaleProjector
 * (Fig. 14) and the communication layer multiplies onto it, so a
 * zero-communication spec (CommSpec::none()) reproduces the Fig. 14
 * numbers bit-identically: the efficiency factor is exactly 1.0 and
 * the network power term exactly 0.0 (gated by bench_cluster_scaleout).
 */

#ifndef ENA_CLUSTER_CLUSTER_EVALUATOR_HH
#define ENA_CLUSTER_CLUSTER_EVALUATOR_HH

#include "cluster/cluster_config.hh"
#include "cluster/comm_pattern.hh"
#include "cluster/internode_network.hh"
#include "core/node_evaluator.hh"
#include "core/studies.hh"

namespace ena {

/** One (node config, app, comm spec) system evaluation. */
struct ClusterResult
{
    App app = App::MaxFlops;
    CommSpec spec;

    EvalResult node;             ///< single-node perf and power

    CommCost comm;
    double commEfficiency = 1.0; ///< compute fraction of wall time

    double analyticExaflops = 0.0; ///< ExascaleProjector, zero comm
    double systemExaflops = 0.0;   ///< comm-aware
    double analyticMw = 0.0;       ///< package scope, zero comm
    double networkMw = 0.0;        ///< inter-node fabric power
    double systemMw = 0.0;         ///< analyticMw + networkMw
};

class ClusterEvaluator
{
  public:
    ClusterEvaluator(const NodeEvaluator &eval, ClusterConfig cluster);

    /** Evaluate one app on one node config across the whole machine. */
    ClusterResult evaluate(const NodeConfig &cfg, App app,
                           const CommSpec &spec) const;

    /**
     * Geometric-mean comm-aware system exaflops over every Table I
     * application; the per-app evaluations fan out over the process
     * pool and reduce deterministically (parallel_reduce).
     */
    double geomeanSystemExaflops(const NodeConfig &cfg,
                                 const CommSpec &spec) const;

    /** Arithmetic-mean communication efficiency over all apps. */
    double meanCommEfficiency(const NodeConfig &cfg,
                              const CommSpec &spec) const;

    const ClusterConfig &clusterConfig() const { return cluster_; }
    const InterNodeNetwork &network() const { return net_; }
    const ExascaleProjector &projector() const { return proj_; }

  private:
    const NodeEvaluator &eval_;
    ClusterConfig cluster_;
    InterNodeNetwork net_;
    ExascaleProjector proj_;
};

} // namespace ena

#endif // ENA_CLUSTER_CLUSTER_EVALUATOR_HH
