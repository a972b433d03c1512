#include "thermal/grid.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace ena {

double
LayerTemps::peak() const
{
    return *std::max_element(t.begin(), t.end());
}

ThermalGrid::ThermalGrid(ThermalGridParams params,
                         std::vector<Layer> layers)
    : params_(params), layers_(std::move(layers))
{
    if (layers_.empty())
        ENA_FATAL("thermal grid needs at least one layer");
    nx_ = layers_.front().power.nx();
    ny_ = layers_.front().power.ny();
    for (const Layer &l : layers_) {
        if (l.power.nx() != nx_ || l.power.ny() != ny_)
            ENA_FATAL("layer '", l.name, "' grid mismatch: ",
                      l.power.nx(), "x", l.power.ny(), " vs ", nx_, "x",
                      ny_);
        if (l.thicknessM <= 0.0 || l.conductivity <= 0.0)
            ENA_FATAL("layer '", l.name, "' needs positive thickness "
                      "and conductivity");
    }
    temps_.assign(layers_.size() * nx_ * ny_, params_.ambientC);
}

size_t
ThermalGrid::idx(size_t layer, size_t x, size_t y) const
{
    return (layer * ny_ + y) * nx_ + x;
}

int
ThermalGrid::solve()
{
    const size_t nl = layers_.size();
    const double dx = params_.widthM / static_cast<double>(nx_);
    const double dy = params_.depthM / static_cast<double>(ny_);
    const double area = dx * dy;

    // Per-layer lateral conductances; per-interface vertical ones.
    std::vector<double> glx(nl);
    std::vector<double> gly(nl);
    std::vector<double> gup(nl, 0.0);   // layer l <-> l+1
    for (size_t l = 0; l < nl; ++l) {
        glx[l] = layers_[l].conductivity * layers_[l].thicknessM * dy /
                 dx;
        gly[l] = layers_[l].conductivity * layers_[l].thicknessM * dx /
                 dy;
        if (l + 1 < nl) {
            double r = layers_[l].thicknessM /
                           (2.0 * layers_[l].conductivity) +
                       layers_[l + 1].thicknessM /
                           (2.0 * layers_[l + 1].conductivity);
            gup[l] = area / r;
        }
    }
    double g_sink =
        1.0 / (params_.sinkResistance * static_cast<double>(nx_ * ny_));

    int iter = 0;
    for (; iter < params_.maxIterations; ++iter) {
        double max_delta = 0.0;
        for (size_t l = 0; l < nl; ++l) {
            const PowerMap &pm = layers_[l].power;
            for (size_t y = 0; y < ny_; ++y) {
                for (size_t x = 0; x < nx_; ++x) {
                    double num = pm.at(x, y);
                    double den = 0.0;
                    if (x > 0) {
                        num += glx[l] * temps_[idx(l, x - 1, y)];
                        den += glx[l];
                    }
                    if (x + 1 < nx_) {
                        num += glx[l] * temps_[idx(l, x + 1, y)];
                        den += glx[l];
                    }
                    if (y > 0) {
                        num += gly[l] * temps_[idx(l, x, y - 1)];
                        den += gly[l];
                    }
                    if (y + 1 < ny_) {
                        num += gly[l] * temps_[idx(l, x, y + 1)];
                        den += gly[l];
                    }
                    if (l > 0) {
                        num += gup[l - 1] * temps_[idx(l - 1, x, y)];
                        den += gup[l - 1];
                    }
                    if (l + 1 < nl) {
                        num += gup[l] * temps_[idx(l + 1, x, y)];
                        den += gup[l];
                    } else {
                        num += g_sink * params_.ambientC;
                        den += g_sink;
                    }
                    size_t i = idx(l, x, y);
                    double t_new = num / den;
                    double t_relaxed =
                        temps_[i] +
                        params_.sorOmega * (t_new - temps_[i]);
                    max_delta = std::max(max_delta,
                                         std::abs(t_relaxed - temps_[i]));
                    temps_[i] = t_relaxed;
                }
            }
        }
        if (max_delta < params_.toleranceC)
            break;
    }

    layerTemps_.clear();
    for (size_t l = 0; l < nl; ++l) {
        LayerTemps lt;
        lt.name = layers_[l].name;
        lt.nx = nx_;
        lt.ny = ny_;
        lt.t.assign(temps_.begin() + static_cast<long>(idx(l, 0, 0)),
                    temps_.begin() +
                        static_cast<long>(idx(l, 0, 0) + nx_ * ny_));
        layerTemps_.push_back(std::move(lt));
    }
    solved_ = true;
    return iter + 1;
}

const std::vector<LayerTemps> &
ThermalGrid::temperatures() const
{
    ENA_ASSERT(solved_, "temperatures() before solve()");
    return layerTemps_;
}

double
ThermalGrid::peak(const std::string &layer_name) const
{
    ENA_ASSERT(solved_, "peak() before solve()");
    for (const LayerTemps &lt : layerTemps_) {
        if (lt.name == layer_name)
            return lt.peak();
    }
    ENA_FATAL("no thermal layer named '", layer_name, "'");
}

std::string
ThermalGrid::asciiHeatMap(const std::string &layer_name, int levels) const
{
    ENA_ASSERT(solved_, "asciiHeatMap() before solve()");
    ENA_ASSERT(levels >= 2 && levels <= 10, "levels must be 2..10");
    const LayerTemps *lt = nullptr;
    for (const LayerTemps &cand : layerTemps_) {
        if (cand.name == layer_name)
            lt = &cand;
    }
    if (!lt)
        ENA_FATAL("no thermal layer named '", layer_name, "'");

    double lo = *std::min_element(lt->t.begin(), lt->t.end());
    double hi = lt->peak();
    double span = std::max(hi - lo, 1e-9);
    static const char *glyphs = " .:-=+*#%@";

    std::ostringstream os;
    for (size_t y = 0; y < lt->ny; ++y) {
        for (size_t x = 0; x < lt->nx; ++x) {
            double u = (lt->at(x, y) - lo) / span;
            int g = std::min(levels - 1,
                             static_cast<int>(u * levels));
            os << glyphs[g];
        }
        os << "\n";
    }
    os << "range " << lo << " .. " << hi << " C\n";
    return os.str();
}

} // namespace ena
