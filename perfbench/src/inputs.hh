/**
 * @file
 * Seeded input generators. Every workload input is a pure function of
 * the --seed argument (and, for the request mix, the request index),
 * so two runs with one seed hand the library identical inputs.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/chiplet_study.hh"
#include "core/dse.hh"
#include "server/wire.hh"

namespace perfbench {

/** Seed of the ena::Rng stream for (seed, purpose, index). */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t purpose,
                         std::uint64_t index = 0);

// --- dse_table2 ------------------------------------------------------

/** Grids the dse_table2 ops cycle over. */
constexpr std::size_t kDseGrids = 16;

/**
 * Grid 0 is DseGrid::paperGrid(). Grid g > 0 has the paper's axis
 * sizes (7 CU x 10 frequency x 7 bandwidth values) drawn from the seed
 * inside the paper's ranges (192-384 CUs, 0.7-1.5 GHz, 1-7 TB/s), and
 * always holds the lowest-power corner 192 CU / 0.7 GHz / 1 TB/s so
 * findBestMean always has a feasible point.
 */
std::vector<ena::DseGrid> dseGrids(std::uint64_t seed);

// --- fig7_chiplet ----------------------------------------------------

struct Fig7Case
{
    ena::App app;
    ena::ChipletStudyParams params;
};

/** Parameter sets per app. */
constexpr int kFig7ParamSets = 2;

/**
 * The ops' (app, params) cycle: XSBench, SNAP, CoMD, each with
 * kFig7ParamSets seeded parameter sets, interleaved by app. Params are
 * ChipletStudyParams::forApp with a seeded p.seed and the sharded
 * (hub + one domain per GPU chiplet) layout.
 */
std::vector<Fig7Case> fig7Cases(std::uint64_t seed);

// --- server_mix ------------------------------------------------------

enum class ReqKind
{
    EvalNode,
    Sweep,
    TaskGraph,
    Cluster,
    Malformed,
};

constexpr int kReqKinds = 5;

/** "eval_node", "sweep", "taskgraph_eval", "cluster_eval", "malformed". */
const char *reqKindName(ReqKind k);

struct Request
{
    ReqKind kind = ReqKind::EvalNode;
    std::string op;              ///< protocol op name
    ena::wire::JsonValue params; ///< op parameters (no "op"/"id")
    bool hot = false;            ///< eval_node config from the hot set
    std::string expectCode;      ///< malformed: expected error code
};

/** Configs in the eval_node hot set. */
constexpr int kHotSet = 256;

/** Sweeps start from the first kSweepBases hot-set configs. */
constexpr int kSweepBases = 16;

/** The hot set's node config texts ("key = value" lines). */
std::vector<std::string> hotConfigs(std::uint64_t seed);

/**
 * Request @p index of the mix: ~80% eval_node (half hot-set, half
 * fresh configs), 8% sweep (one axis, 100-400 points, from one of
 * kSweepBases base configs), 6%
 * taskgraph_eval (seeded random-layered DAG, rotating schedulers), 4%
 * cluster_eval, 2% malformed requests with a known error code.
 */
Request serverRequest(std::uint64_t seed, std::uint64_t index,
                      const std::vector<std::string> &hot);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
