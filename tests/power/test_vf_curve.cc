/**
 * @file
 * Unit tests for the voltage-frequency curve and its NTC variant.
 */

#include <gtest/gtest.h>

#include "common/calibration.hh"
#include "power/vf_curve.hh"

using namespace ena;

TEST(VfCurve, MonotonicInFrequency)
{
    VfCurve vf;
    double prev = 0.0;
    for (double f = 0.5; f <= 1.6; f += 0.1) {
        double v = vf.voltage(f);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(VfCurve, NominalPoint)
{
    VfCurve vf;
    EXPECT_NEAR(vf.voltage(1.0), cal::vNominal, 1e-12);
    EXPECT_NEAR(vf.dynScale(1.0), 1.0, 1e-12);
    EXPECT_NEAR(vf.staticScale(1.0), 1.0, 1e-12);
}

TEST(VfCurve, DynScaleIsQuadraticInVoltage)
{
    VfCurve vf;
    double v = vf.voltage(1.4);
    EXPECT_NEAR(vf.dynScale(1.4), (v / cal::vNominal) * (v / cal::vNominal),
                1e-12);
}

TEST(VfCurve, NtcLowersVoltageAtLowFrequency)
{
    VfCurve vf;
    EXPECT_LT(vf.voltageNtc(0.8), vf.voltage(0.8));
    EXPECT_NEAR(vf.voltage(0.8) - vf.voltageNtc(0.8),
                cal::ntcDropVolts, 1e-12);
}

TEST(VfCurve, NtcFadesOutAtHighFrequency)
{
    VfCurve vf;
    // Full benefit at/below the NTC-sustainable frequency.
    EXPECT_NEAR(vf.voltage(cal::ntcFullDropGhz) -
                    vf.voltageNtc(cal::ntcFullDropGhz),
                cal::ntcDropVolts, 1e-12);
    // No benefit past the fade-out point.
    EXPECT_NEAR(vf.voltageNtc(cal::ntcZeroDropGhz + 0.1),
                vf.voltage(cal::ntcZeroDropGhz + 0.1), 1e-12);
    // Partial benefit in between.
    double mid = (cal::ntcFullDropGhz + cal::ntcZeroDropGhz) / 2.0;
    double drop = vf.voltage(mid) - vf.voltageNtc(mid);
    EXPECT_GT(drop, 0.0);
    EXPECT_LT(drop, cal::ntcDropVolts);
}

TEST(VfCurve, NtcNeverBelowVmin)
{
    // Unclamped, the NTC curve would give 0.5 + 0.2 * 0.2 - 0.13 V.
    VfCurve vf;
    EXPECT_DOUBLE_EQ(vf.voltageNtc(0.2), 0.45);
}

TEST(VfCurveDeathTest, NonPositiveFrequencyPanics)
{
    VfCurve vf;
    EXPECT_DEATH(vf.voltage(0.0), "positive frequency");
}
