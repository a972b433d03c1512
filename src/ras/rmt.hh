/**
 * @file
 * GPU redundant multithreading (RMT) model (paper Section II-A5).
 *
 * The paper's proposal: rather than burden every GPU chiplet with
 * HPC-grade hardware RAS (hurting its reusability in consumer markets),
 * use software RMT — when the GPU is not fully utilized, the otherwise
 * idle resources redundantly execute wavefronts and compare results to
 * detect errors. The paper cites the approach [25] but performs no
 * quantitative evaluation; this model provides one, driven by the same
 * Activity vector the power model consumes:
 *
 *  - utilization below ~50%: full duplication fits in the idle CUs, so
 *    detection coverage is maximal and the slowdown small (duplicated
 *    memory traffic and scheduling overhead only);
 *  - higher utilization: duplication steals compute, so either coverage
 *    drops (partial RMT) or performance does (full RMT).
 */

#ifndef ENA_RAS_RMT_HH
#define ENA_RAS_RMT_HH

#include <string>
#include <vector>

#include "common/activity.hh"
#include "util/status.hh"

namespace ena {

/** RMT operating policies. */
enum class RmtPolicy
{
    Off,
    /** Duplicate only into idle resources; coverage degrades when the
     *  kernel already uses most of the GPU. */
    Opportunistic,
    /** Always duplicate everything; performance pays when busy. */
    Full,
};

/** Display name ("off" / "opportunistic" / "full"). */
std::string rmtPolicyName(RmtPolicy p);

/** Parse a policy name (case-insensitive). */
Expected<RmtPolicy> tryRmtPolicyFromName(const std::string &name);

/** All policies, in enum order. */
const std::vector<RmtPolicy> &allRmtPolicies();

struct RmtOutcome
{
    /** Fraction of GPU computation executed redundantly (0..1). */
    double coverage = 0.0;
    /** Multiplicative slowdown (>= 1). */
    double slowdown = 1.0;
    /** Extra dynamic CU activity (relative, for the power model). */
    double extraCuActivity = 0.0;
};

class RmtModel
{
  public:
    /**
     * @param compare_overhead slowdown of fully-duplicated execution
     *        from result comparison and scheduling (paper's cited
     *        compiler-managed RMT sees ~5-30%).
     */
    explicit RmtModel(double compare_overhead = 0.12);

    /** Evaluate one kernel's activity under a policy. */
    RmtOutcome evaluate(const Activity &act, RmtPolicy policy) const;

  private:
    double compareOverhead_;
};

} // namespace ena

#endif // ENA_RAS_RMT_HH
