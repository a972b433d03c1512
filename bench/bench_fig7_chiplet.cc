/**
 * @file
 * Fig. 7: out-of-chiplet traffic and the performance impact of the
 * multi-chiplet organization relative to a hypothetical monolithic EHP,
 * from the cycle-level simulator (paper Section V-A).
 *
 * The paper plots XSBench, SNAP, and CoMD; pass --all to run every
 * application (slower). Any other argument is a usage error (exit 2).
 */

#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "core/chiplet_study.hh"
#include "util/table.hh"

using namespace ena;

int
main(int argc, char **argv)
{
    bool all = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--all") != 0) {
            std::cerr << "bench_fig7_chiplet: unknown argument '"
                      << argv[i] << "'\nUsage: bench_fig7_chiplet [--all]\n";
            return 2;
        }
        all = true;
    }

    bench::banner("Figure 7",
                  "Out-of-chiplet traffic and impact on performance "
                  "(chiplet EHP vs monolithic EHP,\nevent-driven "
                  "simulation of the scaled EHP).");

    std::vector<App> apps = {App::XSBench, App::SNAP, App::CoMD};
    if (all)
        apps = allApps();

    ChipletStudy study;
    TextTable t({"Application", "Out-of-chiplet traffic (%)",
                 "EHP perf vs monolithic (%)", "chiplet us",
                 "monolithic us", "L2 hit", "mean hops"});
    for (const Fig7Row &row : study.compareAll(apps)) {
        t.row()
            .add(appName(row.app))
            .add(row.remoteTrafficPct, "%.1f")
            .add(row.perfVsMonolithicPct, "%.1f")
            .add(row.chiplet.runtimeUs, "%.1f")
            .add(row.monolithic.runtimeUs, "%.1f")
            .add(row.chiplet.l2HitRate, "%.3f")
            .add(row.chiplet.meanHops, "%.2f");
    }
    bench::show(t, "fig7_chiplet");
    std::cout << "\nPaper findings: out-of-chiplet traffic dominates "
                 "(60-95%); the largest performance\ndegradation vs the "
                 "monolithic design is 13%, and some kernels (SNAP) see "
                 "a negligible impact.\n";
    return 0;
}
