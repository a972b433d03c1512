#include "thermal/power_map.hh"

#include "util/logging.hh"

namespace ena {

PowerMap::PowerMap(size_t nx, size_t ny)
    : nx_(nx), ny_(ny), cells_(nx * ny, 0.0)
{
    ENA_ASSERT(nx > 0 && ny > 0, "empty power map");
}

size_t
PowerMap::idx(size_t x, size_t y) const
{
    ENA_ASSERT(x < nx_ && y < ny_, "power-map index (", x, ",", y,
               ") out of ", nx_, "x", ny_);
    return y * nx_ + x;
}

void
PowerMap::addUniform(double watts)
{
    double per = watts / static_cast<double>(cells_.size());
    for (double &c : cells_)
        c += per;
}

void
PowerMap::addRect(size_t x0, size_t y0, size_t w, size_t h, double watts)
{
    ENA_ASSERT(w > 0 && h > 0, "empty rect");
    ENA_ASSERT(x0 + w <= nx_ && y0 + h <= ny_, "rect (", x0, ",", y0,
               ")+", w, "x", h, " exceeds map ", nx_, "x", ny_);
    double per = watts / static_cast<double>(w * h);
    for (size_t y = y0; y < y0 + h; ++y) {
        for (size_t x = x0; x < x0 + w; ++x)
            cells_[y * nx_ + x] += per;
    }
}

double
PowerMap::totalWatts() const
{
    double s = 0.0;
    for (double c : cells_)
        s += c;
    return s;
}

} // namespace ena
