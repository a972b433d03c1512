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
    // One batch over the flattened (bw, freq) cross product.
    double base = eval_.evaluate(bestMean_, app).perf.flops;
    const std::size_t nf = freqs.size();
    NodeConfigBatch b;
    b.base = bestMean_;
    b.reserve(bws.size() * nf);
    for (std::size_t i = 0; i < bws.size() * nf; ++i)
        b.push(bestMean_.cus, freqs[i % nf], bws[i / nf]);
    BatchEvalResult r = eval_.evaluateBatch(b, app);

    std::vector<OpbCurve> curves(bws.size());
    for (std::size_t c = 0; c < bws.size(); ++c) {
        curves[c].bwTbs = bws[c];
        curves[c].points.resize(nf);
        for (std::size_t f = 0; f < nf; ++f) {
            std::size_t i = c * nf + f;
            OpbPoint &p = curves[c].points[f];
            p.cfg = b.at(i);
            p.opsPerByte = p.cfg.opsPerByte();
            p.normPerf = r.flops[i] / base;
        }
    }
    return curves;
}

std::vector<OpbCurve>
OpbSweepStudy::sweepCuCount(App app, const std::vector<double> &bws,
                            const std::vector<int> &cus) const
{
    double base = eval_.evaluate(bestMean_, app).perf.flops;
    const std::size_t nc = cus.size();
    NodeConfigBatch b;
    b.base = bestMean_;
    b.reserve(bws.size() * nc);
    for (std::size_t i = 0; i < bws.size() * nc; ++i)
        b.push(cus[i % nc], bestMean_.freqGhz, bws[i / nc]);
    BatchEvalResult r = eval_.evaluateBatch(b, app);

    std::vector<OpbCurve> curves(bws.size());
    for (std::size_t c = 0; c < bws.size(); ++c) {
        curves[c].bwTbs = bws[c];
        curves[c].points.resize(nc);
        for (std::size_t u = 0; u < nc; ++u) {
            std::size_t i = c * nc + u;
            OpbPoint &p = curves[c].points[u];
            p.cfg = b.at(i);
            p.opsPerByte = p.cfg.opsPerByte();
            p.normPerf = r.flops[i] / base;
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
    NodeConfig base;
    base.freqGhz = 1.0;
    base.bwTbs = 1.0;
    NodeConfigBatch b;
    b.base = base;
    b.reserve(cus.size());
    for (int c : cus)
        b.push(c, base.freqGhz, base.bwTbs);
    BatchEvalResult r = eval_.evaluateBatch(b, App::MaxFlops);

    std::vector<ExascalePoint> out(cus.size());
    for (std::size_t i = 0; i < cus.size(); ++i) {
        out[i].cus = cus[i];
        out[i].systemExaflops = r.flops[i] * nodes_ / 1e18;
        out[i].systemMw = r.packagePowerW[i] * nodes_ / 1e6;
    }
    return out;
}

} // namespace ena
