/**
 * @file
 * Steady-state 3D thermal conduction solver (HotSpot-class compact
 * model, paper Section V-D).
 *
 * The die stack is a list of layers, each an nx x ny lateral grid with a
 * thickness, thermal conductivity, and power map. Cells conduct
 * laterally within a layer and vertically between adjacent layers
 * (series resistance of the two half-thicknesses). The top layer sees a
 * convective boundary (heat sink) to ambient; other outer faces are
 * adiabatic. Solved with successive over-relaxation.
 */

#ifndef ENA_THERMAL_GRID_HH
#define ENA_THERMAL_GRID_HH

#include <string>
#include <vector>

#include "thermal/power_map.hh"

namespace ena {

/** One physical layer of the stack, bottom-up order. */
struct Layer
{
    std::string name;
    double thicknessM = 100e-6;     ///< meters
    double conductivity = 120.0;    ///< W/(m K); silicon ~ 110-150
    PowerMap power;                 ///< dissipation per cell (W)
};

struct ThermalGridParams
{
    double widthM = 0.015;          ///< lateral extent (x)
    double depthM = 0.015;          ///< lateral extent (y)
    double ambientC = 50.0;         ///< 2U-chassis inlet (paper V-D)
    /** Heat-sink thermal resistance from the top layer to ambient
     *  (K/W), high-end air cooling. */
    double sinkResistance = 0.9;
    double sorOmega = 1.8;
    double toleranceC = 1e-4;
    int maxIterations = 20000;
};

/** Solved temperature field of one layer. */
struct LayerTemps
{
    std::string name;
    size_t nx = 0;
    size_t ny = 0;
    std::vector<double> t;          ///< degrees C, row-major

    double at(size_t x, size_t y) const { return t[y * nx + x]; }
    double peak() const;
};

class ThermalGrid
{
  public:
    ThermalGrid(ThermalGridParams params, std::vector<Layer> layers);

    /** Run SOR to convergence; returns iterations used. */
    int solve();

    /** Per-layer temperatures (solve() must have been called). */
    const std::vector<LayerTemps> &temperatures() const;

    /** Peak temperature across a named layer; fatal() if unknown. */
    double peak(const std::string &layer_name) const;

    /** Render one layer as an ASCII heat map (for Fig. 11). */
    std::string asciiHeatMap(const std::string &layer_name,
                             int levels = 10) const;

    size_t numLayers() const { return layers_.size(); }
    const ThermalGridParams &params() const { return params_; }

  private:
    size_t idx(size_t layer, size_t x, size_t y) const;

    ThermalGridParams params_;
    std::vector<Layer> layers_;
    size_t nx_ = 0;
    size_t ny_ = 0;
    bool solved_ = false;
    std::vector<double> temps_;     ///< flattened (layer, y, x)
    std::vector<LayerTemps> layerTemps_;
};

} // namespace ena

#endif // ENA_THERMAL_GRID_HH
