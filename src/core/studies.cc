#include "core/studies.hh"

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace ena {

// --------------------------------------------------------------------
// OpbSweepStudy
// --------------------------------------------------------------------

OpbSweepStudy::OpbSweepStudy(const NodeEvaluator &eval,
                             NodeConfig best_mean)
    : eval_(eval), bestMean_(best_mean)
{
}

std::vector<double>
OpbSweepStudy::paperBandwidths()
{
    return {1.0, 3.0, 4.0, 5.0, 6.0, 7.0};
}

std::vector<OpbCurve>
OpbSweepStudy::sweepFrequency(App app, const std::vector<double> &bws,
                              const std::vector<double> &freqs) const
{
    double base = eval_.evaluate(bestMean_, app).perf.flops;
    std::vector<OpbCurve> curves(bws.size());
    for (std::size_t c = 0; c < bws.size(); ++c) {
        curves[c].bwTbs = bws[c];
        for (double f : freqs) {
            OpbPoint p;
            p.cfg = bestMean_;
            p.cfg.freqGhz = f;
            p.cfg.bwTbs = bws[c];
            p.opsPerByte = p.cfg.opsPerByte();
            p.normPerf = eval_.evaluate(p.cfg, app).perf.flops / base;
            curves[c].points.push_back(p);
        }
    }
    return curves;
}

std::vector<OpbCurve>
OpbSweepStudy::sweepCuCount(App app, const std::vector<double> &bws,
                            const std::vector<int> &cus) const
{
    double base = eval_.evaluate(bestMean_, app).perf.flops;
    std::vector<OpbCurve> curves(bws.size());
    for (std::size_t c = 0; c < bws.size(); ++c) {
        curves[c].bwTbs = bws[c];
        for (int u : cus) {
            OpbPoint p;
            p.cfg = bestMean_;
            p.cfg.cus = u;
            p.cfg.bwTbs = bws[c];
            p.opsPerByte = p.cfg.opsPerByte();
            p.normPerf = eval_.evaluate(p.cfg, app).perf.flops / base;
            curves[c].points.push_back(p);
        }
    }
    return curves;
}

// --------------------------------------------------------------------
// MissRateStudy
// --------------------------------------------------------------------

MissRateStudy::MissRateStudy(const NodeEvaluator &eval, NodeConfig cfg)
    : eval_(eval), cfg_(cfg)
{
}

MissRateSeries
MissRateStudy::run(App app, const std::vector<double> &rates) const
{
    const KernelProfile &k = profileFor(app);
    const PerfModel &pm = eval_.perfModel();
    double base = pm.evaluateWithMissRate(cfg_, k, 0.0);
    MissRateSeries s;
    s.app = app;
    for (double m : rates) {
        MissRatePoint p;
        p.missRate = m;
        p.normPerf = pm.evaluateWithMissRate(cfg_, k, m) / base;
        s.points.push_back(p);
    }
    return s;
}

std::vector<MissRateSeries>
MissRateStudy::run() const
{
    const std::vector<double> rates = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
    const std::vector<App> &apps = allApps();
    return ThreadPool::global().parallelMap(
        apps.size(),
        [&](std::size_t i) { return run(apps[i], rates); });
}

// --------------------------------------------------------------------
// ExternalMemoryStudy
// --------------------------------------------------------------------

ExternalMemoryStudy::ExternalMemoryStudy(const NodeEvaluator &eval,
                                         NodeConfig cfg)
    : eval_(eval), cfg_(cfg)
{
}

std::vector<ExtMemBar>
ExternalMemoryStudy::run() const
{
    const struct
    {
        const char *name;
        ExtMemConfig ext;
    } configs[] = {
        {"3D DRAM only", ExtMemConfig::dramOnly()},
        {"3D DRAM + NVM", ExtMemConfig::hybrid()},
    };
    const std::vector<App> &apps = allApps();
    return ThreadPool::global().parallelMap(
        2 * apps.size(), [&](std::size_t i) {
            const auto &c = configs[i / apps.size()];
            App app = apps[i % apps.size()];
            NodeConfig cfg = cfg_;
            cfg.ext = c.ext;
            ExtMemBar bar;
            bar.app = app;
            bar.configName = c.name;
            bar.power = eval_.evaluate(cfg, app).power;
            return bar;
        });
}

// --------------------------------------------------------------------
// PerfPerWattStudy
// --------------------------------------------------------------------

PerfPerWattStudy::PerfPerWattStudy(const NodeEvaluator &eval,
                                   NodeConfig base_cfg, NodeConfig opt_cfg)
    : eval_(eval), baseCfg_(base_cfg), optCfg_(opt_cfg)
{
}

std::vector<PerfPerWattRow>
PerfPerWattStudy::run() const
{
    const std::vector<App> &apps = allApps();
    return ThreadPool::global().parallelMap(
        apps.size(), [&](std::size_t i) {
            App app = apps[i];
            EvalResult base = eval_.evaluate(baseCfg_, app);
            EvalResult opt = eval_.evaluate(optCfg_, app);
            PerfPerWattRow row;
            row.app = app;
            row.basePerfPerWatt =
                base.perf.flops / base.power.budgetPower();
            row.optPerfPerWatt =
                opt.perf.flops / opt.power.budgetPower();
            row.improvementPct =
                (row.optPerfPerWatt / row.basePerfPerWatt - 1.0) * 100.0;
            return row;
        });
}

// --------------------------------------------------------------------
// ExascaleProjector
// --------------------------------------------------------------------

ExascaleProjector::ExascaleProjector(const NodeEvaluator &eval, int nodes)
    : eval_(eval), nodes_(nodes)
{
    ENA_ASSERT(nodes > 0, "need a positive node count");
}

double
ExascaleProjector::systemExaflops(const NodeConfig &cfg, App app) const
{
    return systemExaflops(eval_.evaluate(cfg, app));
}

double
ExascaleProjector::systemMw(const NodeConfig &cfg, App app) const
{
    return systemMw(eval_.evaluate(cfg, app));
}

std::vector<ExascalePoint>
ExascaleProjector::sweepCus(const std::vector<int> &cus) const
{
    NodeConfig cfg;
    cfg.freqGhz = 1.0;
    cfg.bwTbs = 1.0;
    std::vector<ExascalePoint> out;
    for (int c : cus) {
        cfg.cus = c;
        EvalResult r = eval_.evaluate(cfg, App::MaxFlops);
        out.push_back({c, systemExaflops(r), systemMw(r)});
    }
    return out;
}

} // namespace ena
