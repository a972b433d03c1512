/**
 * @file
 * The cell steps the quarantining sweeps share. A topology, protection
 * or task-graph sweep runs each of its cells through runSweepCell; the
 * DSE sweep quarantines its invalid grid points with quarantineCell.
 * A quarantined cell has ok == false and an error that says why, and
 * the rest of the sweep runs on: one bad cell cannot kill a sweep.
 */

#ifndef ENA_CORE_SWEEP_CELL_HH
#define ENA_CORE_SWEEP_CELL_HH

#include <cstddef>
#include <exception>
#include <string>

#include "telemetry/metrics.hh"
#include "util/logging.hh"
#include "util/status.hh"

namespace ena {

/**
 * Quarantine @p p: ok = false with @p error, counted in
 * sweep.configs_failed, and warned as "<where...>: <error>".
 */
template <typename P, typename... Where>
void
quarantineCell(P &p, std::string error, const Where &...where)
{
    static telemetry::Counter &failed =
        telemetry::counter("sweep.configs_failed");
    p.ok = false;
    p.error = std::move(error);
    failed.add();
    warn(where..., ": ", p.error);
}

/**
 * One sweep cell. @p p arrives with its identity fields set and its
 * computed fields at their defaults; when @p validate() is ok,
 * @p compute(p) fills the computed fields. A validation error, or an
 * exception with the computed fields reset, quarantines the cell as
 * "<sweep>: quarantined cell <i>".
 */
template <typename P, typename ValidateFn, typename ComputeFn>
P
runSweepCell(const char *sweep, std::size_t i, P p, ValidateFn &&validate,
             ComputeFn &&compute)
{
    const Status valid = validate();
    if (!valid.ok()) {
        quarantineCell(p, valid.toString(), sweep, ": quarantined cell ",
                       i);
        return p;
    }
    const P identity = p;
    try {
        compute(p);
    } catch (const std::exception &e) {
        p = identity;
        quarantineCell(p, e.what(), sweep, ": quarantined cell ", i);
    }
    return p;
}

} // namespace ena

#endif // ENA_CORE_SWEEP_CELL_HH
