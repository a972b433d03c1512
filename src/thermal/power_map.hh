/**
 * @file
 * Lateral power-density maps for thermal-grid layers.
 *
 * A PowerMap is an nx x ny grid of per-cell dissipation (W). Builders
 * support uniform fills and rectangular tiles (CU arrays, L2 slices),
 * which is how the EHP chiplet floorplans are expressed.
 */

#ifndef ENA_THERMAL_POWER_MAP_HH
#define ENA_THERMAL_POWER_MAP_HH

#include <cstddef>
#include <vector>

namespace ena {

class PowerMap
{
  public:
    /** Default: a 1x1 zero map (placeholder until assigned). */
    PowerMap() : PowerMap(1, 1) {}

    PowerMap(size_t nx, size_t ny);

    size_t nx() const { return nx_; }
    size_t ny() const { return ny_; }

    double at(size_t x, size_t y) const { return cells_[idx(x, y)]; }
    void set(size_t x, size_t y, double w) { cells_[idx(x, y)] = w; }
    void add(size_t x, size_t y, double w) { cells_[idx(x, y)] += w; }

    /** Spread @p watts uniformly over the whole layer. */
    void addUniform(double watts);

    /**
     * Spread @p watts uniformly over the cell rectangle
     * [x0, x0+w) x [y0, y0+h).
     */
    void addRect(size_t x0, size_t y0, size_t w, size_t h, double watts);

    /** Sum over all cells. */
    double totalWatts() const;

  private:
    size_t idx(size_t x, size_t y) const;

    size_t nx_;
    size_t ny_;
    std::vector<double> cells_;
};

} // namespace ena

#endif // ENA_THERMAL_POWER_MAP_HH
