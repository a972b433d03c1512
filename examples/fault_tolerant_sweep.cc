/**
 * @file
 * Fault-tolerant DSE sweep CLI: run the paper's full grid sweep and
 * print a CSV result table to stdout, with every per-config result
 * streamed to the journal named by ENA_SWEEP_JOURNAL (if set) so a
 * killed run resumes where it left off.
 *
 * This is the binary behind the CI tear/resume smoke: run once for a
 * reference CSV, run again with a journal and fault injection, cut the
 * journal mid-record the way a SIGKILL mid-write leaves it, then rerun
 * with the same journal and diff the CSVs — they must be
 * byte-identical.
 *
 * Usage:
 *   fault_tolerant_sweep [THREADS]
 *
 * Environment:
 *   ENA_SWEEP_JOURNAL=path   checkpoint/resume journal
 *   ENA_FAULT_INJECT=rate,seed[,faults_per_task]  inject task faults
 *   ENA_TASK_RETRIES=n       attempts per task (absorb transients)
 *   ENA_THREADS=n            pool width (overridden by argv[1])
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/calibration.hh"
#include "core/dse.hh"
#include "core/node_evaluator.hh"
#include "util/thread_pool.hh"

using namespace ena;

int
main(int argc, char **argv)
{
    if (argc > 1) {
        int threads = std::atoi(argv[1]);
        if (threads < 1) {
            std::cerr << "usage: fault_tolerant_sweep [THREADS]\n";
            return 1;
        }
        ThreadPool::setGlobalThreads(threads);
    }

    NodeEvaluator eval;
    DesignSpaceExplorer dse(eval, DseGrid::paperGrid(),
                            cal::nodePowerBudgetW);

    // sweep() consults ENA_SWEEP_JOURNAL itself: already-journaled
    // points are skipped, fresh ones stream to the journal as they
    // finish. A SIGKILL at any moment loses at most one torn record.
    std::vector<DsePoint> points = dse.sweep(PowerOptConfig::none());

    std::printf("cus,freq_ghz,bw_tbs,geomean_flops,mean_budget_w,"
                "max_budget_w,feasible,ok,error\n");
    for (const DsePoint &p : points) {
        std::printf("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%s\n",
                    p.cfg.cus, p.cfg.freqGhz, p.cfg.bwTbs,
                    p.geomeanFlops, p.meanBudgetPowerW,
                    p.maxBudgetPowerW, p.feasible ? 1 : 0, p.ok ? 1 : 0,
                    p.error.c_str());
    }
    return 0;
}
