#include "power/vf_curve.hh"

#include <algorithm>

#include "common/calibration.hh"
#include "util/logging.hh"
#include "util/stats_math.hh"

namespace ena {

VfCurve::VfCurve()
    : base_(cal::vfBase), slope_(cal::vfSlope), vMin_(0.45),
      vNominal_(cal::vNominal)
{
}

double
VfCurve::voltage(double f_ghz) const
{
    ENA_ASSERT(f_ghz > 0.0, "voltage() needs positive frequency");
    return std::max(vMin_, base_ + slope_ * f_ghz);
}

double
VfCurve::voltageNtc(double f_ghz) const
{
    double fade = clamp((cal::ntcZeroDropGhz - f_ghz) /
                            (cal::ntcZeroDropGhz - cal::ntcFullDropGhz),
                        0.0, 1.0);
    return std::max(vMin_, voltage(f_ghz) - cal::ntcDropVolts * fade);
}

double
VfCurve::dynScale(double f_ghz, bool ntc) const
{
    double v = ntc ? voltageNtc(f_ghz) : voltage(f_ghz);
    double r = v / vNominal_;
    return r * r;
}

double
VfCurve::staticScale(double f_ghz, bool ntc) const
{
    double v = ntc ? voltageNtc(f_ghz) : voltage(f_ghz);
    return v / vNominal_;
}

} // namespace ena
