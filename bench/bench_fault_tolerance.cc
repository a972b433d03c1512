/**
 * @file
 * Gate for the fault-tolerant execution substrate. Three invariants,
 * each fatal to the exit code:
 *
 *  (a) a fault-injected parallel DSE sweep whose tasks are retried is
 *      bit-identical to a fault-free serial sweep (transient faults
 *      are absorbed, never observable in results);
 *  (b) a sweep killed mid-run and resumed from its journal reproduces
 *      the uninterrupted result table bit-identically, including when
 *      the kill left a partial trailing record;
 *  (c) a sweep over a grid containing one permanently-invalid config
 *      completes, quarantines exactly that config with its diagnostic,
 *      and reports every other point unchanged.
 *
 * Usage: bench_fault_tolerance [THREADS]   (default: ENA_THREADS / all)
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/calibration.hh"
#include "core/dse.hh"
#include "core/sweep_journal.hh"
#include "util/fault_inject.hh"
#include "util/thread_pool.hh"

using namespace ena;

namespace {

int failures = 0;

void
check(bool cond, const std::string &what)
{
    if (cond) {
        std::cout << "  ok: " << what << "\n";
    } else {
        std::cerr << "  FAIL: " << what << "\n";
        ++failures;
    }
}

bool
identical(const std::vector<DsePoint> &a, const std::vector<DsePoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const DsePoint &p = a[i];
        const DsePoint &q = b[i];
        if (p.cfg.cus != q.cfg.cus || p.cfg.freqGhz != q.cfg.freqGhz ||
            p.cfg.bwTbs != q.cfg.bwTbs ||
            p.geomeanFlops != q.geomeanFlops ||
            p.meanBudgetPowerW != q.meanBudgetPowerW ||
            p.maxBudgetPowerW != q.maxBudgetPowerW ||
            p.feasible != q.feasible || p.ok != q.ok ||
            p.error != q.error)
            return false;
    }
    return true;
}

DseGrid
benchGrid()
{
    DseGrid g;
    for (int c = 192; c <= 384; c += 32)
        g.cus.push_back(c);
    g.freqsGhz = {0.7, 1.0, 1.3};
    g.bwsTbs = {1.0, 3.0, 5.0};
    return g;
}

std::unique_ptr<SweepJournal>
mustOpen(const std::string &path)
{
    auto j = SweepJournal::open(path);
    if (!j.ok()) {
        std::cerr << "cannot open journal " << path << ": "
                  << j.status().toString() << "\n";
        std::exit(1);
    }
    return std::move(j).value();
}

/**
 * Reproduce what a kill -9 mid-sweep leaves behind: the first
 * @p keep_lines intact records plus half of the next one, with no
 * trailing newline.
 */
void
truncateMidRecord(const std::string &src, const std::string &dst,
                  std::size_t keep_lines)
{
    std::ifstream in(src);
    std::ofstream out(dst, std::ios::trunc);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        if (n < keep_lines)
            out << line << "\n";
        else {
            out << line.substr(0, line.size() / 2);
            break;
        }
        ++n;
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int threads = argc > 1 ? std::atoi(argv[1])
                           : ThreadPool::defaultThreads();
    if (threads < 1)
        threads = 1;

    bench::banner("Fault-tolerant sweep execution",
                  "Injected transient faults + retries, kill/resume via "
                  "the sweep journal, and\nquarantine of permanently "
                  "failing configs — all bit-identical to clean runs.");

    const NodeEvaluator &eval = bench::evaluator();
    const DseGrid grid = benchGrid();
    const PowerOptConfig opts = PowerOptConfig::none();
    // Every run is a fresh explorer's first sweep: a second sweep on
    // one explorer reuses the first one's flops, so its pool tasks
    // would not recompute what the comparison is about.
    auto sweep = [&](SweepJournal *journal) {
        return DesignSpaceExplorer(eval, grid, cal::nodePowerBudgetW)
            .sweep(opts, journal);
    };

    std::cout << "grid: " << grid.size() << " configurations; "
              << threads << " thread(s)\n";

    // ---- (a) injected transient faults + retries are invisible -------
    std::cout << "\n[a] fault injection + retry vs fault-free serial\n";
    fault_inject::clearFaultPlan();
    ThreadPool::setGlobalThreads(1);
    const std::vector<DsePoint> serial = sweep(nullptr);

    ThreadPool::setGlobalThreads(threads);
    ThreadPool::global().setRetryPolicy(RetryPolicy::attempts(4));
    FaultPlan plan;
    plan.rate = 0.3;
    plan.seed = 12345;
    plan.faultsPerTask = 2;   // transient: absorbed within 3 attempts
    const std::uint64_t before = fault_inject::faultsInjected();
    fault_inject::setFaultPlan(plan);
    const std::vector<DsePoint> faulted = sweep(nullptr);
    fault_inject::clearFaultPlan();
    const std::uint64_t injected = fault_inject::faultsInjected() - before;

    std::cout << "  injected " << injected << " fault(s) across "
              << grid.size() << " tasks\n";
    check(injected > 0, "fault plan actually fired");
    check(identical(serial, faulted),
          "fault-injected parallel sweep is bit-identical to fault-free "
          "serial sweep");

    // ---- (b) kill mid-sweep, resume from the journal ------------------
    std::cout << "\n[b] journal checkpoint / kill / resume\n";
    const std::string jpath = "bench_fault_tolerance.journal";
    const std::string jcut = jpath + ".truncated";
    std::remove(jpath.c_str());
    std::remove(jcut.c_str());

    const std::vector<DsePoint> reference = sweep(nullptr);

    {
        auto j = mustOpen(jpath);
        const std::vector<DsePoint> journaled = sweep(j.get());
        check(identical(reference, journaled),
              "journaled sweep matches unjournaled sweep");
        check(j->appendedRecords() == grid.size(),
              "every grid point was journaled");
    }
    {
        // Replay: every point decodes from disk, nothing recomputes.
        auto j = mustOpen(jpath);
        check(j->loadedRecords() == grid.size(),
              "journal reloads every record intact");
        const std::vector<DsePoint> replay = sweep(j.get());
        check(identical(reference, replay),
              "fully-journaled replay round-trips bit-identically");
        check(j->appendedRecords() == 0, "replay recomputed nothing");
    }
    {
        // Kill simulation: keep 1/3 of the records plus a torn line.
        truncateMidRecord(jpath, jcut, grid.size() / 3);
        auto j = mustOpen(jcut);
        check(j->loadedRecords() == grid.size() / 3,
              "truncated journal keeps only the intact records");
        check(j->droppedRecords() == 1,
              "the torn trailing record is dropped");
        const std::vector<DsePoint> resumed = sweep(j.get());
        check(identical(reference, resumed),
              "resumed sweep reproduces the uninterrupted table "
              "bit-identically");
        check(j->appendedRecords() ==
                  grid.size() - grid.size() / 3,
              "resume recomputed exactly the missing points");
    }
    {
        auto j = mustOpen(jcut);
        check(j->loadedRecords() == grid.size(),
              "journal is complete after the resumed run");
    }
    std::remove(jpath.c_str());
    std::remove(jcut.c_str());

    // ---- (c) permanent failure -> quarantine, not death ---------------
    std::cout << "\n[c] quarantine of a permanently failing config\n";
    DseGrid clean;
    for (int c = 192; c <= 320; c += 32)
        clean.cus.push_back(c);
    clean.freqsGhz = {1.0};
    clean.bwsTbs = {3.0};
    DseGrid bad = clean;
    bad.cus.push_back(-32);   // fails NodeConfig::tryValidate forever

    DesignSpaceExplorer dse_clean(eval, clean, cal::nodePowerBudgetW);
    DesignSpaceExplorer dse_bad(eval, bad, cal::nodePowerBudgetW);
    const std::vector<DsePoint> ok_pts = dse_clean.sweep(opts, nullptr);
    const std::vector<DsePoint> bad_pts = dse_bad.sweep(opts, nullptr);

    std::size_t quarantined = 0;
    for (const DsePoint &p : bad_pts)
        if (!p.ok)
            ++quarantined;
    check(bad_pts.size() == clean.size() + 1,
          "sweep over the poisoned grid completed");
    check(quarantined == 1, "exactly one grid point was quarantined");
    const DsePoint &q = bad_pts.back();
    check(!q.ok && q.cfg.cus == -32,
          "the quarantined point is the invalid config");
    check(q.error.find("bad CU count") != std::string::npos,
          "quarantine carries the validation diagnostic (got '" +
              q.error + "')");
    check(!q.feasible, "a quarantined point is never feasible");
    check(identical(ok_pts, {bad_pts.begin(),
                             bad_pts.begin() + clean.size()}),
          "every healthy point is unchanged by the quarantine");

    if (failures) {
        std::cerr << "\nFAIL: " << failures << " invariant(s) violated\n";
        return 1;
    }
    std::cout << "\nall fault-tolerance invariants hold\n";
    return 0;
}
