/**
 * @file
 * End-to-end telemetry walkthrough: run one slice of every instrumented
 * subsystem — a parallel DSE sweep, a cycle-level HBM simulation, the
 * thermal package solver, and a scale-out cluster study — then flush a
 * Chrome trace and a metrics dump and verify the trace really contains
 * spans from all of them.
 *
 * Output paths come from ENA_TRACE / ENA_METRICS when set; otherwise
 * trace.json and metrics.csv in the current directory. Load the trace
 * in chrome://tracing or https://ui.perfetto.dev.
 *
 * Exits 1 if any expected subsystem is missing from the trace, so the
 * CI smoke job can gate on it.
 *
 * Usage: trace_viewer_demo
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scale_out_study.hh"
#include "core/ena.hh"
#include "core/thermal_study.hh"
#include "mem/hbm_stack.hh"
#include "sim/simulation.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace ena;

int
main()
{
    // ENA_TRACE/ENA_METRICS were already honored at startup; default
    // both to files in the current directory when unset so the demo
    // always produces something to open.
    std::string trace_path =
        std::getenv("ENA_TRACE") ? std::getenv("ENA_TRACE")
                                 : "trace.json";
    std::string metrics_path =
        std::getenv("ENA_METRICS") ? std::getenv("ENA_METRICS")
                                   : "metrics.csv";
    telemetry::enableTracing(trace_path);
    telemetry::enableMetrics(metrics_path);
    telemetry::setThreadName("trace_viewer_demo-main");

    std::cout << "Collecting telemetry from four subsystems...\n";

    // 1. Parallel DSE sweep: "dse" spans plus the "threadpool" chunk
    //    tracks of the workers that score the grid.
    NodeEvaluator eval;
    DesignSpaceExplorer dse(eval, DseGrid::paperGrid(),
                            cal::nodePowerBudgetW);
    NodeConfig best = dse.findBestMean(PowerOptConfig::none());
    std::cout << "  dse: best-mean config " << best.label() << "\n";

    // 2. Cycle-level simulation: a burst of HBM accesses through the
    //    event queue ("sim" span, sim.events_processed counter).
    {
        Simulation sim;
        auto *stack = sim.create<HbmStack>("hbm", 750.0 / 8);
        sim.initAll();
        Rng rng(42);
        std::uint64_t done = 0;
        for (int i = 0; i < 2000; ++i) {
            stack->access(rng.below(1ull << 30) & ~63ull, 64,
                          (i % 4) == 0, [&done] { ++done; });
        }
        std::uint64_t events = sim.run();
        std::cout << "  sim: " << events << " events, " << done
                  << " HBM accesses retired\n";
    }

    // 3. Thermal package solve for the best-mean config ("thermal"
    //    span, solver-iteration histogram).
    ThermalStudy thermal(eval);
    double peak_c = thermal.peakDramC(best, App::SNAP);
    std::cout << "  thermal: SNAP peak DRAM "
              << strformat("%.1f", peak_c) << " C\n";

    // 4. Scale-out study: a short weak-scaling curve ("cluster" spans,
    //    fabric-byte counters).
    ScaleOutStudy study(eval, ClusterConfig{});
    auto curve =
        study.weakScaling(best, App::CoMD, CommSpec{},
                          {64, 512, 4096, 32768, 100000});
    std::cout << "  cluster: " << curve.size()
              << " weak-scaling points, full-machine efficiency "
              << strformat("%.3f", curve.back().efficiency) << "\n";

    telemetry::flush();

    // Self-check: every subsystem must have left spans in the trace.
    std::ifstream in(trace_path);
    if (!in) {
        std::cerr << "FAIL: cannot reopen " << trace_path << "\n";
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string trace = buf.str();
    bool ok = true;
    for (const char *cat : {"\"cat\":\"threadpool\"", "\"cat\":\"dse\"",
                            "\"cat\":\"sim\"", "\"cat\":\"thermal\"",
                            "\"cat\":\"cluster\""}) {
        if (trace.find(cat) == std::string::npos) {
            std::cerr << "FAIL: trace has no " << cat << " events\n";
            ok = false;
        }
    }
    if (!ok)
        return 1;

    std::cout << "\nTrace written to " << trace_path
              << " (spans from threadpool, dse, sim, thermal, cluster)"
              << "\nMetrics written to " << metrics_path
              << "\nOpen the trace in chrome://tracing or "
                 "https://ui.perfetto.dev\n";
    return 0;
}
