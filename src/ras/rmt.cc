#include "ras/rmt.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/stats_math.hh"
#include "util/string_utils.hh"

namespace ena {

std::string
rmtPolicyName(RmtPolicy p)
{
    switch (p) {
      case RmtPolicy::Off:
        return "off";
      case RmtPolicy::Opportunistic:
        return "opportunistic";
      case RmtPolicy::Full:
        return "full";
    }
    ENA_FATAL("unknown RmtPolicy ", static_cast<int>(p));
}

Expected<RmtPolicy>
tryRmtPolicyFromName(const std::string &name)
{
    std::string n = toLower(name);
    for (RmtPolicy p : allRmtPolicies()) {
        if (n == rmtPolicyName(p))
            return p;
    }
    if (n == "none" || n == "disabled")
        return RmtPolicy::Off;
    return Status::invalidArgument(
        "unknown RMT policy '", name,
        "' (want off, opportunistic, or full)");
}

const std::vector<RmtPolicy> &
allRmtPolicies()
{
    static const std::vector<RmtPolicy> all = {
        RmtPolicy::Off,
        RmtPolicy::Opportunistic,
        RmtPolicy::Full,
    };
    return all;
}

RmtModel::RmtModel(double compare_overhead)
    : compareOverhead_(compare_overhead)
{
    ENA_ASSERT(compare_overhead >= 0.0 && compare_overhead < 1.0,
               "bad RMT comparison overhead");
}

RmtOutcome
RmtModel::evaluate(const Activity &act, RmtPolicy policy) const
{
    RmtOutcome out;
    if (policy == RmtPolicy::Off)
        return out;

    double util = clamp(act.cuUtilization, 0.0, 1.0);
    double idle = 1.0 - util;

    if (policy == RmtPolicy::Opportunistic) {
        // Duplicate as much of the busy fraction as fits in the idle
        // resources; no compute is stolen, so the only slowdown is the
        // comparison overhead on the covered fraction.
        out.coverage = util > 0.0 ? std::min(1.0, idle / util) : 1.0;
        out.slowdown =
            1.0 + compareOverhead_ * out.coverage * util;
        out.extraCuActivity = util * out.coverage;
        return out;
    }

    // Full duplication: everything runs twice.
    out.coverage = 1.0;
    double demand = 2.0 * util;
    // When the doubled demand exceeds the machine, execution dilates.
    double dilation = std::max(1.0, demand);
    out.slowdown = dilation * (1.0 + compareOverhead_);
    out.extraCuActivity = std::min(util, idle) +
                          std::max(0.0, util - idle);
    return out;
}

} // namespace ena
