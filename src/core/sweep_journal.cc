#include "core/sweep_journal.hh"

#include <cstdlib>
#include <sstream>

#include "telemetry/metrics.hh"

namespace ena {

namespace journal_detail {

std::uint32_t
crc32(const std::string &data)
{
    // Bitwise CRC-32 (IEEE, reflected). Records are one short line, so
    // a lookup table is not worth its footprint here.
    std::uint32_t crc = 0xffffffffu;
    for (unsigned char c : data) {
        crc ^= c;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    return out;
}

bool
unescape(const std::string &s, std::string *out)
{
    out->clear();
    out->reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            *out += s[i];
            continue;
        }
        if (++i == s.size())
            return false;
        switch (s[i]) {
          case '\\': *out += '\\'; break;
          case 't': *out += '\t'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          default: return false;
        }
    }
    return true;
}

namespace {

/**
 * Parse one journal line; true when it is an intact v1 record.
 * Partial trailing lines (mid-write kill) and bit rot both land here
 * as a field-count or CRC mismatch.
 */
bool
parseRecord(const std::string &line, std::string *key,
            std::string *payload)
{
    // v1 \t crc \t key \t payload  (key/payload still escaped).
    const std::size_t crc_end = line.find('\t', 3);
    if (line.rfind("v1\t", 0) != 0 || crc_end == std::string::npos)
        return false;
    const std::size_t key_end = line.find('\t', crc_end + 1);
    char *end = nullptr;
    const unsigned long crc = std::strtoul(line.c_str() + 3, &end, 16);
    return key_end != std::string::npos && crc_end > 3 &&
           end == line.c_str() + crc_end &&
           crc32(line.substr(crc_end + 1)) == crc &&
           unescape(line.substr(crc_end + 1, key_end - crc_end - 1), key) &&
           unescape(line.substr(key_end + 1), payload);
}

} // anonymous namespace

void
countQuarantined()
{
    static telemetry::Counter &c = telemetry::counter(
        "sweep.configs_failed",
        "grid points quarantined instead of evaluated");
    c.add();
}

} // namespace journal_detail

Expected<std::unique_ptr<SweepJournal>>
SweepJournal::open(const std::string &path)
{
    std::unique_ptr<SweepJournal> j(new SweepJournal);
    j->path_ = path;

    // Load whatever an earlier (possibly killed) run left behind. A
    // mid-write kill leaves a last line without its newline; the next
    // append must not concatenate onto the torn record, so it starts
    // with one.
    bool torn = false;
    std::ifstream in(path);
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
        torn = in.eof();
        if (line.empty())
            continue;
        std::string key, payload;
        if (!journal_detail::parseRecord(line, &key, &payload)) {
            // A mid-write kill leaves one partial trailing line; anything
            // else here is corruption. Either way the point is simply
            // recomputed.
            warn("sweep journal ", path, ":", lineno,
                 ": dropping corrupt or partial record");
            ++j->dropped_;
            continue;
        }
        j->loaded_[key] = payload;
    }

    j->out_.open(path, std::ios::app);
    if (!j->out_) {
        return Status::ioError("cannot open sweep journal '", path,
                               "' for append");
    }
    if (torn)
        j->out_ << "\n";
    return j;
}

std::unique_ptr<SweepJournal>
SweepJournal::openFromEnvironment()
{
    const char *path = std::getenv("ENA_SWEEP_JOURNAL");
    if (!path || !*path)
        return nullptr;
    auto j = open(path);
    if (!j.ok()) {
        warn("ENA_SWEEP_JOURNAL: ", j.status().message(),
             "; sweeping without a journal");
        return nullptr;
    }
    inform("sweep journal ", path, ": resuming past ",
           (*j)->loadedRecords(), " journaled points");
    return std::move(j).value();
}

bool
SweepJournal::lookup(const std::string &key, std::string *payload) const
{
    auto it = loaded_.find(key);
    if (it == loaded_.end())
        return false;
    *payload = it->second;
    static telemetry::Counter &hits = telemetry::counter(
        "sweep.journal_hits",
        "grid points skipped because the journal already had them");
    hits.add();
    return true;
}

void
SweepJournal::append(const std::string &key, const std::string &payload)
{
    const std::string body = journal_detail::escape(key) + "\t" +
                             journal_detail::escape(payload);
    std::ostringstream rec;
    rec << "v1\t" << std::hex << journal_detail::crc32(body) << "\t"
        << body << "\n";

    std::lock_guard<std::mutex> lk(m_);
    // One flushed write per record: a kill can at worst truncate the
    // final line, which the next load drops and recomputes.
    out_ << rec.str();
    out_.flush();
    ++appended_;
    static telemetry::Counter &appends = telemetry::counter(
        "sweep.journal_appends", "grid points written to the journal");
    appends.add();
}

} // namespace ena
