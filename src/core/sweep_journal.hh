/**
 * @file
 * Append-only sweep journal: checkpoint/resume for the DSE and cluster
 * sweeps.
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
 * A key names every input its point reads (journalNodeKey() for the
 * node, plus whatever else the sweep varies or takes as an argument),
 * so one journal file can serve different sweeps without replaying a
 * point computed for other inputs.
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
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/node_config.hh"
#include "util/status.hh"

namespace ena {

/**
 * The node part of every sweep-journal key: the exact bits of the
 * three DSE knobs (the CU count, then frequency and bandwidth as
 * hexfloats) and the power-opt bits. Unlike NodeConfig::label(), which
 * rounds, two configs share it only when those inputs are bit-equal.
 */
std::string journalNodeKey(const NodeConfig &cfg);

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

    /** Append one record and flush it to disk. Thread-safe. */
    void append(const std::string &key, const std::string &payload);

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

namespace journal_detail {

/** CRC-32 (IEEE, reflected) over @p data. */
std::uint32_t crc32(const std::string &data);

/** Escape tabs, newlines, and backslashes for one-line records. */
std::string escape(const std::string &s);

/** Inverse of escape(); false when the escaping is malformed. */
bool unescape(const std::string &s, std::string *out);

} // namespace journal_detail

} // namespace ena

#endif // ENA_CORE_SWEEP_JOURNAL_HH
