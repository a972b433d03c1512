/**
 * @file
 * Voltage-frequency curve for the GPU voltage domain, including the
 * near-threshold-computing (NTC) variant from Section V-E.
 *
 * The paper's power methodology scales measured power with in-house
 * voltage-frequency curves; we model a linear V(f) around a nominal
 * point (0.8 V @ 1 GHz) which is representative of published
 * FinFET-generation GPU DVFS curves.
 */

#ifndef ENA_POWER_VF_CURVE_HH
#define ENA_POWER_VF_CURVE_HH

namespace ena {

class VfCurve
{
  public:
    /** Curve with default calibration constants. */
    VfCurve();

    /** Supply voltage at @p f_ghz on the standard curve. */
    double voltage(double f_ghz) const;

    /**
     * Supply voltage with NTC circuits enabled: a fixed reduction that
     * is sustainable up to ~1 GHz and fades to zero at higher
     * frequencies (variability margins grow with frequency).
     */
    double voltageNtc(double f_ghz) const;

    /** Nominal voltage used for normalizing dynamic power. */
    double nominal() const { return vNominal_; }

    /**
     * Dynamic-power scale factor (V/Vnom)^2 at @p f_ghz.
     * @param ntc use the NTC curve.
     */
    double dynScale(double f_ghz, bool ntc = false) const;

    /** Static-power scale factor ~ (V/Vnom) at @p f_ghz. */
    double staticScale(double f_ghz, bool ntc = false) const;

  private:
    double base_;
    double slope_;
    double vMin_;
    double vNominal_;
};

} // namespace ena

#endif // ENA_POWER_VF_CURVE_HH
