#include "power/node_power.hh"

#include <algorithm>
#include <cmath>

#include "common/calibration.hh"
#include "power/power_terms.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace ena {

PowerBreakdown
NodePowerModel::evaluate(const NodeConfig &cfg, const Activity &act) const
{
    cfg.validate();

    // The whole evaluation lives in power_terms::evaluatePower so the
    // DSE's grid scorer (core/dse.cc) runs the identical operation
    // sequence; the VF scales and the static terms are precomputed
    // here exactly as the scorer's term tables hold them.
    power_terms::VfScales vf =
        power_terms::vfScales(vf_, cfg.freqGhz, cfg.opts.ntc);
    double hbm_static =
        power_terms::hbmStaticW(cfg.bwTbs, cfg.gpuChiplets);
    power_terms::ExtStatic ext_static = power_terms::extStaticW(cfg.ext);
    return power_terms::evaluatePower(cfg.cus, cfg.freqGhz, cfg.opts,
                                      cfg.ext, act, vf, hbm_static,
                                      ext_static);
}

} // namespace ena
