/**
 * @file
 * Append-only sweep journal, and the cell steps the quarantining
 * sweeps share (runSweepCell; the DSE uses its replay/quarantine/record).
 *
 * A sweep streams one record per finished grid point to a journal file
 * (one CRC-guarded line each, flushed as written). When a run is killed
 * mid-sweep, re-running with the same journal path skips every point
 * already on disk and recomputes only the missing ones, producing a
 * result table bit-identical to an uninterrupted run (records encode
 * doubles as hexfloats, so values round-trip exactly; gated by
 * bench_fault_tolerance).
 *
 * Record format, one per line:
 *
 *   v1 <TAB> crc32-hex8 <TAB> key <TAB> payload
 *
 * The CRC covers "key TAB payload" (after escaping); a partial trailing
 * line from a mid-write kill, or any line whose CRC does not match, is
 * dropped with a warning on load and simply recomputed. Keys and
 * payloads are escaped so they may contain tabs and newlines.
 *
 * A key names every input its point reads: journalKey() walks each
 * config struct's configFields list (util/config.hh) at exact bits,
 * plus whatever else the sweep passes, so one journal file can serve
 * different sweeps without replaying a point computed for other
 * inputs. A payload walks the point type's journalFields list, which
 * names its computed doubles and bools, then ok, then error (last).
 *
 * The journal is activated either explicitly (open a journal and hand
 * it to the sweep overloads that take one) or ambiently via the
 * ENA_SWEEP_JOURNAL environment variable, which the plain sweep entry
 * points consult. Entries loaded at open are immutable while a sweep
 * runs, so lookups need no lock; appends are serialized by a mutex and
 * flushed per record.
 */

#ifndef ENA_CORE_SWEEP_JOURNAL_HH
#define ENA_CORE_SWEEP_JOURNAL_HH

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "util/logging.hh"
#include "util/status.hh"
#include "util/string_utils.hh"

namespace ena {

namespace journal_detail {

/** CRC-32 (IEEE, reflected) over @p data. */
std::uint32_t crc32(const std::string &data);

/** Escape tabs, newlines, and backslashes for one-line records. */
std::string escape(const std::string &s);

/** Inverse of escape(); false when the escaping is malformed. */
bool unescape(const std::string &s, std::string *out);

/** Count one quarantined cell in sweep.configs_failed. */
void countQuarantined();

/** journalFields visitor: each number and a space, then the error. */
struct PayloadWriter
{
    void operator()(double v) { text += strformat("%a ", v); }
    void operator()(bool v) { text += v ? "1 " : "0 "; }
    void operator()(const std::string &v) { text += v; }

    std::string text;
};

/** journalFields visitor: the inverse of PayloadWriter. */
struct PayloadReader
{
    void operator()(double &v) { v = std::strtod(at, &num); next(num); }
    void operator()(bool &v) { v = *at == '1'; next(at + (v || *at == '0')); }
    void operator()(std::string &v) { v.assign(at, last); }

    /** Step past a token that ends at @p end and its space, or fail. */
    void
    next(const char *end)
    {
        ok = ok && end != at && *end == ' ';
        at = ok ? end + 1 : last;
    }

    const char *at, *last;   ///< the unread payload
    char *num = nullptr;     ///< where strtod stopped
    bool ok = true;
};

/**
 * Append ":" and one key part at exact bits: a double as a hexfloat,
 * an enum or integer as its value, a config struct as every field on
 * its configFields list.
 */
template <typename T>
void
appendKeyPart(std::string &key, const T &v)
{
    if constexpr (std::is_floating_point_v<T>) {
        key += strformat(":%a", v);
    } else if constexpr (std::is_enum_v<T> || std::is_integral_v<T>) {
        key += ":" + std::to_string(static_cast<long long>(v));
    } else {
        T s = v;   // configFields takes the struct it binds mutably
        configFields(s, [&](const char *, auto &field, auto &&...) {
            appendKeyPart(key, field);
        });
    }
}

} // namespace journal_detail

/**
 * The journal key of cell @p index of @p sweep: "sweep[index]" and
 * then every part at exact bits (journal_detail::appendKeyPart).
 */
template <typename... Parts>
std::string
journalKey(const char *sweep, std::size_t index, const Parts &...parts)
{
    std::string key = strformat("%s[%zu]", sweep, index);
    (journal_detail::appendKeyPart(key, parts), ...);
    return key;
}

class SweepJournal
{
  public:
    /**
     * Open (creating if absent) the journal at @p path, loading every
     * intact record already present. IoError when the file cannot be
     * opened for append.
     */
    static Expected<std::unique_ptr<SweepJournal>> open(
        const std::string &path);

    /**
     * The ambient flavor: open the path named by ENA_SWEEP_JOURNAL, or
     * return null when the variable is unset. An unusable path warns
     * and returns null (the sweep then simply runs unjournaled).
     */
    static std::unique_ptr<SweepJournal> openFromEnvironment();

    /**
     * Look up a previously journaled record. Safe to call concurrently
     * from sweep tasks: the loaded map is immutable after open.
     */
    bool lookup(const std::string &key, std::string *payload) const;

    /** Replay @p key's record into @p p's journalFields; false, with
     *  @p p untouched, when none decodes (a bad payload warns). */
    template <typename P>
    bool
    replay(const std::string &key, P *p) const
    {
        std::string payload;
        if (!lookup(key, &payload))
            return false;
        P q = *p;
        journal_detail::PayloadReader in{payload.data(),
                                         payload.data() + payload.size()};
        journalFields(q, in);
        if (in.ok)
            *p = std::move(q);
        else
            warn("sweep journal: undecodable payload for '", key,
                 "'; recomputing");
        return in.ok;
    }

    /** Append one record and flush it to disk. Thread-safe. */
    void append(const std::string &key, const std::string &payload);

    /** Append @p p's journalFields under @p key. Thread-safe. */
    template <typename P>
    void
    record(const std::string &key, P p)
    {
        journal_detail::PayloadWriter out;
        journalFields(p, out);
        append(key, out.text);
    }

    const std::string &path() const { return path_; }

    /** Intact records found on disk at open (i.e. skippable points). */
    std::size_t loadedRecords() const { return loaded_.size(); }

    /** Corrupt or partial lines dropped while loading. */
    std::size_t droppedRecords() const { return dropped_; }

    /** Records written by this process so far. */
    std::size_t
    appendedRecords() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return appended_;
    }

  private:
    SweepJournal() = default;

    std::string path_;
    std::map<std::string, std::string> loaded_;
    std::size_t dropped_ = 0;

    mutable std::mutex m_;
    std::ofstream out_;
    std::size_t appended_ = 0;
};

/**
 * Quarantine @p p: ok = false with @p error, counted in
 * sweep.configs_failed, and warned as "<where...>: <error>".
 */
template <typename P, typename... Where>
void
quarantineCell(P &p, std::string error, const Where &...where)
{
    p.ok = false;
    p.error = std::move(error);
    journal_detail::countQuarantined();
    warn(where..., ": ", p.error);
}

/**
 * One sweep cell without a journal. @p p arrives with its identity
 * fields set and its computed fields at their defaults; when
 * @p validate() is ok, @p compute(p) fills the computed fields. A
 * validation error, or an exception with the computed fields reset,
 * quarantines the cell as "<sweep>: quarantined cell <i>".
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

/**
 * The same cell through @p journal (may be null): replay it under
 * @p key() when journaled, else run it and record it.
 */
template <typename P, typename KeyFn, typename ValidateFn,
          typename ComputeFn>
P
runSweepCell(SweepJournal *journal, KeyFn &&key, const char *sweep,
             std::size_t i, P p, ValidateFn &&validate, ComputeFn &&compute)
{
    if (!journal)
        return runSweepCell(sweep, i, std::move(p), validate, compute);
    const std::string k = key();
    if (!journal->replay(k, &p)) {
        p = runSweepCell(sweep, i, std::move(p), validate, compute);
        journal->record(k, p);
    }
    return p;
}

} // namespace ena

#endif // ENA_CORE_SWEEP_JOURNAL_HH
