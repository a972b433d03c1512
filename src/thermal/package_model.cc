#include "thermal/package_model.hh"

#include <algorithm>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

namespace {

constexpr double dieEdgeM = 0.015;   ///< chiplet/stack edge length
constexpr int dramDies = 8;
/** CU tile grid on the GPU die: cols x rows tile slots. */
constexpr int tileCols = 8;
constexpr int tileRows = 6;

} // anonymous namespace

EhpPackageModel::EhpPackageModel(PackageThermalParams params)
    : params_(params)
{
    ENA_ASSERT(params_.gridN >= 8, "grid too coarse");
}

ThermalGrid
EhpPackageModel::buildGrid(const NodeConfig &cfg,
                           const PowerBreakdown &power) const
{
    const size_t n = params_.gridN;
    const int chiplets = cfg.gpuChiplets;

    // Per-chiplet (column) shares of the node power.
    double cu_w = (power.cuDyn + power.cuStatic) / chiplets;
    double noc_w = (power.nocDyn + power.nocStatic) / chiplets;
    double hbm_w = (power.hbmDyn + power.hbmStatic) / chiplets;

    // ---- interposer ---------------------------------------------------
    Layer interposer;
    interposer.name = "interposer";
    interposer.thicknessM = 100e-6;
    interposer.conductivity = 120.0;
    interposer.power = PowerMap(n, n);
    interposer.power.addUniform(noc_w);

    // ---- GPU die: CU tile array + uniform uncore ----------------------
    Layer gpu;
    gpu.name = "gpu";
    gpu.thicknessM = 200e-6;
    gpu.conductivity = 120.0;
    gpu.power = PowerMap(n, n);

    int slots = tileCols * tileRows;
    int active = std::min(
        slots, static_cast<int>(cfg.cusPerChiplet() + 0.5));
    ENA_ASSERT(active > 0, "no active CU tiles");
    double cu_tile_w = cu_w * 0.85 / active;   // 85% in the CU array
    double uncore_w = cu_w * 0.15;

    // CU array occupies the central 3/4 of the die.
    size_t margin = n / 8;
    size_t array_w = n - 2 * margin;
    size_t tile_w = array_w / tileCols;
    size_t tile_h = array_w / tileRows;
    // Gap cells between tiles sharpen the hot-spot pattern.
    for (int ti = 0; ti < active; ++ti) {
        int col = ti % tileCols;
        int row = ti / tileCols;
        size_t x0 = margin + col * tile_w;
        size_t y0 = margin + row * tile_h;
        size_t w = std::max<size_t>(1, tile_w - 1);
        size_t h = std::max<size_t>(1, tile_h - 1);
        gpu.power.addRect(x0, y0, w, h, cu_tile_w);
    }
    gpu.power.addUniform(uncore_w);

    // ---- DRAM stack ---------------------------------------------------
    std::vector<Layer> layers;
    layers.push_back(std::move(interposer));
    layers.push_back(std::move(gpu));
    double per_die_w = hbm_w / dramDies;
    for (int d = 0; d < dramDies; ++d) {
        Layer die;
        die.name = strformat("dram%d", d);
        die.thicknessM = 60e-6;
        // Effective conductivity reduced by microbump/underfill layers.
        die.conductivity = 30.0;
        die.power = PowerMap(n, n);
        die.power.addUniform(per_die_w);
        layers.push_back(std::move(die));
    }

    // ---- TIM and spreader ---------------------------------------------
    Layer tim;
    tim.name = "tim";
    tim.thicknessM = 50e-6;
    tim.conductivity = 4.0;
    tim.power = PowerMap(n, n);
    layers.push_back(std::move(tim));

    Layer spreader;
    spreader.name = "spreader";
    spreader.thicknessM = 1e-3;
    spreader.conductivity = 390.0;
    spreader.power = PowerMap(n, n);
    layers.push_back(std::move(spreader));

    ThermalGridParams gp;
    gp.widthM = dieEdgeM;
    gp.depthM = dieEdgeM;
    gp.ambientC = params_.ambientC;
    gp.sinkResistance = params_.sinkResistance;
    return ThermalGrid(gp, std::move(layers));
}

PackageThermalResult
EhpPackageModel::solve(const NodeConfig &cfg,
                       const PowerBreakdown &power) const
{
    ENA_SPAN("thermal", "solve_package");
    ThermalGrid grid = buildGrid(cfg, power);
    PackageThermalResult r;
    r.solverIterations = grid.solve();

    // SOR iterations, summed over all solves and per solve.
    static telemetry::Counter &iters =
        telemetry::counter("thermal.solver_iterations");
    iters.add(static_cast<std::uint64_t>(r.solverIterations));
    static telemetry::Histogram &iters_hist =
        telemetry::histogram("thermal.solver_iterations_per_solve");
    iters_hist.sample(static_cast<double>(r.solverIterations));

    r.peakBottomDramC = grid.peak("dram0");
    r.peakGpuC = grid.peak("gpu");
    r.peakDramC = 0.0;
    for (int d = 0; d < dramDies; ++d) {
        r.peakDramC = std::max(
            r.peakDramC, grid.peak(strformat("dram%d", d)));
    }
    for (const LayerTemps &lt : grid.temperatures()) {
        if (lt.name == "dram0")
            r.bottomDram = lt;
    }
    return r;
}

std::string
EhpPackageModel::heatMap(const NodeConfig &cfg,
                         const PowerBreakdown &power) const
{
    ThermalGrid grid = buildGrid(cfg, power);
    grid.solve();
    return grid.asciiHeatMap("dram0");
}

} // namespace ena
