/**
 * @file
 * Tests for the append-only sweep journal: record round-trips, CRC
 * rejection of corruption, recovery from the torn trailing record a
 * mid-write kill leaves behind, the ENA_SWEEP_JOURNAL ambient entry
 * point, the exact-bits journal keys, and the sweep-cell runner's
 * quarantine and replay.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cluster_config_io.hh"
#include "cluster/resilient_cluster_io.hh"
#include "common/node_config_io.hh"
#include "core/sweep_journal.hh"
#include "telemetry/metrics.hh"

using namespace ena;

namespace {

/** A sweep point: one identity field, computed fields, the verdict. */
struct CellPoint
{
    int id = 0;
    double value = 0.0;
    double slowdown = 1.0;   ///< a computed field whose default is not 0
    bool flag = false;
    bool ok = true;
    std::string error;
};

template <typename F>
void
journalFields(CellPoint &p, F &&field)
{
    field(p.value);
    field(p.slowdown);
    field(p.flag);
    field(p.ok);
    field(p.error);
}

CellPoint
identity(int id)
{
    CellPoint p;
    p.id = id;
    return p;
}

std::uint64_t
quarantinedSoFar()
{
    return telemetry::counter("sweep.configs_failed").value();
}

/**
 * Change field @p k of @p s's configFields list: the next double, the
 * next int or enum value, the other bool.
 */
template <typename S>
S
withFieldChanged(S s, int k)
{
    int at = 0;
    configFields(s, [&](const char *, auto &f, auto &&...) {
        using T = std::decay_t<decltype(f)>;
        if (at++ != k)
            return;
        if constexpr (std::is_floating_point_v<T>)
            f = std::nextafter(f, INFINITY);
        else if constexpr (std::is_same_v<T, bool>)
            f = !f;
        else if constexpr (std::is_enum_v<T>)
            f = static_cast<T>(static_cast<int>(f) + 1);
        else
            f += 1;
    });
    return s;
}

/** Every field on @p S's list, changed alone, changes the key. */
template <typename S>
void
expectEveryFieldInTheKey(const S &base, int fields)
{
    const std::string key = journalKey("cell", 0, base);
    for (int k = 0; k < fields; ++k) {
        EXPECT_NE(journalKey("cell", 0, withFieldChanged(base, k)), key)
            << "field " << k << " of " << fields;
    }
    EXPECT_EQ(journalKey("cell", 0, withFieldChanged(base, fields)), key);
}

/** A journal path unique to the test, removed on scope exit. */
struct TempJournal
{
    explicit TempJournal(const std::string &name)
        : path("test_sweep_journal_" + name + ".tmp")
    {
        std::remove(path.c_str());
    }
    ~TempJournal() { std::remove(path.c_str()); }

    std::string path;
};

std::unique_ptr<SweepJournal>
mustOpen(const std::string &path)
{
    auto j = SweepJournal::open(path);
    EXPECT_TRUE(j.ok()) << j.status().toString();
    return std::move(j).value();
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // anonymous namespace

TEST(JournalDetail, Crc32MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32 check vector.
    EXPECT_EQ(journal_detail::crc32("123456789"), 0xcbf43926u);
    EXPECT_EQ(journal_detail::crc32(""), 0u);
}

TEST(JournalDetail, EscapeRoundTripsControlCharacters)
{
    const std::string nasty = "a\tb\nc\rd\\e";
    const std::string escaped = journal_detail::escape(nasty);
    EXPECT_EQ(escaped.find('\t'), std::string::npos);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    std::string back;
    ASSERT_TRUE(journal_detail::unescape(escaped, &back));
    EXPECT_EQ(back, nasty);
}

TEST(JournalDetail, UnescapeRejectsMalformedEscapes)
{
    std::string out;
    EXPECT_FALSE(journal_detail::unescape("dangling\\", &out));
    EXPECT_FALSE(journal_detail::unescape("bad\\q", &out));
    EXPECT_TRUE(journal_detail::unescape("plain", &out));
    EXPECT_EQ(out, "plain");
}

TEST(SweepJournal, OpensEmptyAndAppends)
{
    TempJournal t("empty");
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 0u);
    EXPECT_EQ(j->droppedRecords(), 0u);
    EXPECT_EQ(j->appendedRecords(), 0u);
    EXPECT_EQ(j->path(), t.path);

    std::string payload;
    EXPECT_FALSE(j->lookup("k", &payload));
    j->append("k", "v");
    EXPECT_EQ(j->appendedRecords(), 1u);
    // Appends are visible to the *next* open, not to lookup() — the
    // loaded map is immutable while a sweep runs.
    EXPECT_FALSE(j->lookup("k", &payload));
}

TEST(SweepJournal, RecordsRoundTripAcrossReopen)
{
    TempJournal t("roundtrip");
    {
        auto j = mustOpen(t.path);
        j->append("dse[0]:cu320", "0x1.8p+1 0x1p+0 1 1 ");
        j->append("key with\ttab", "payload\nwith newline");
    }
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 2u);
    EXPECT_EQ(j->droppedRecords(), 0u);
    std::string payload;
    ASSERT_TRUE(j->lookup("dse[0]:cu320", &payload));
    EXPECT_EQ(payload, "0x1.8p+1 0x1p+0 1 1 ");
    ASSERT_TRUE(j->lookup("key with\ttab", &payload));
    EXPECT_EQ(payload, "payload\nwith newline");
}

TEST(SweepJournal, CorruptRecordIsDroppedNotTrusted)
{
    TempJournal t("corrupt");
    {
        auto j = mustOpen(t.path);
        j->append("good", "1");
        j->append("flipped", "2");
    }
    // Flip one payload byte without fixing the CRC.
    std::string data = readAll(t.path);
    auto pos = data.rfind('2');
    ASSERT_NE(pos, std::string::npos);
    data[pos] = '3';
    std::ofstream(t.path, std::ios::binary | std::ios::trunc) << data;

    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 1u);
    EXPECT_EQ(j->droppedRecords(), 1u);
    std::string payload;
    EXPECT_TRUE(j->lookup("good", &payload));
    EXPECT_FALSE(j->lookup("flipped", &payload));
}

TEST(SweepJournal, TornTrailingRecordIsDroppedAndRepaired)
{
    TempJournal t("torn");
    {
        auto j = mustOpen(t.path);
        j->append("a", "1");
        j->append("b", "2");
    }
    // Simulate a kill -9 mid-write: cut the last record in half, no
    // trailing newline.
    std::string data = readAll(t.path);
    auto cut = data.find('\n') + 1;
    std::string torn = data.substr(0, cut + (data.size() - cut) / 2);
    std::ofstream(t.path, std::ios::binary | std::ios::trunc) << torn;

    {
        auto j = mustOpen(t.path);
        EXPECT_EQ(j->loadedRecords(), 1u);
        EXPECT_EQ(j->droppedRecords(), 1u);
        // The resumed run recomputes and re-appends the lost point; it
        // must start on a fresh line, not glue onto the torn record.
        j->append("b", "2");
    }
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 2u);
    EXPECT_EQ(j->droppedRecords(), 1u);   // the torn half-line remains
    std::string payload;
    ASSERT_TRUE(j->lookup("b", &payload));
    EXPECT_EQ(payload, "2");
}

TEST(SweepJournal, GarbageLinesDoNotPoisonTheRest)
{
    TempJournal t("garbage");
    {
        auto j = mustOpen(t.path);
        j->append("keep", "me");
    }
    {
        std::ofstream out(t.path, std::ios::app);
        out << "not a record at all\n";
        out << "v1\tzzzz\tbad\tcrc-field\n";
    }
    auto j = mustOpen(t.path);
    EXPECT_EQ(j->loadedRecords(), 1u);
    EXPECT_EQ(j->droppedRecords(), 2u);
}

TEST(SweepJournal, OpenFailsWithIoErrorOnAnUnwritablePath)
{
    auto j = SweepJournal::open("no/such/directory/journal");
    ASSERT_FALSE(j.ok());
    EXPECT_EQ(j.status().code(), ErrorCode::IoError);
    EXPECT_NE(j.status().message().find("no/such/directory/journal"),
              std::string::npos);
}

TEST(SweepJournal, OpenFromEnvironmentHonorsTheVariable)
{
    ASSERT_EQ(unsetenv("ENA_SWEEP_JOURNAL"), 0);
    EXPECT_EQ(SweepJournal::openFromEnvironment(), nullptr);

    TempJournal t("env");
    ASSERT_EQ(setenv("ENA_SWEEP_JOURNAL", t.path.c_str(), 1), 0);
    auto j = SweepJournal::openFromEnvironment();
    ASSERT_NE(j, nullptr);
    EXPECT_EQ(j->path(), t.path);

    // An unusable path degrades to "no journal", it does not kill the
    // sweep.
    ASSERT_EQ(setenv("ENA_SWEEP_JOURNAL", "no/such/dir/j", 1), 0);
    EXPECT_EQ(SweepJournal::openFromEnvironment(), nullptr);
    ASSERT_EQ(unsetenv("ENA_SWEEP_JOURNAL"), 0);
}

TEST(JournalKey, NamesEveryFieldOfEveryInputStructAtExactBits)
{
    expectEveryFieldInTheKey(NodeConfig{}, 18);
    expectEveryFieldInTheKey(ClusterConfig{}, 12);
    expectEveryFieldInTheKey(ResilienceSpec::paper(), 11);

    EXPECT_EQ(journalKey("topo", 3), "topo[3]");
    EXPECT_EQ(journalKey("dse", 0, 1.0, 2, true), "dse[0]:0x1p+0:2:1");
    EXPECT_NE(journalKey("dse", 0, 1.0), journalKey("dse", 1, 1.0));
}

TEST(SweepCell, AThrowingComputeIsQuarantinedWithItsComputedFieldsReset)
{
    const std::uint64_t before = quarantinedSoFar();
    const CellPoint p = runSweepCell(
        "test sweep", 3, identity(7), [] { return Status(); },
        [](CellPoint &q) {
            q.value = 42.0;
            q.slowdown = 2.0;
            q.flag = true;
            q.error = "partial";
            throw std::runtime_error("model blew up");
        });
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.id, 7);
    EXPECT_EQ(p.value, 0.0);
    EXPECT_EQ(p.slowdown, 1.0);
    EXPECT_FALSE(p.flag);
    EXPECT_EQ(p.error, "model blew up");
    EXPECT_EQ(quarantinedSoFar(), before + 1);
}

TEST(SweepCell, AnInvalidCellIsQuarantinedWithoutComputing)
{
    const std::uint64_t before = quarantinedSoFar();
    bool computed = false;
    const CellPoint p = runSweepCell(
        "test sweep", 0, identity(5),
        [] { return Status::outOfRange("bad cell"); },
        [&](CellPoint &) { computed = true; });
    EXPECT_FALSE(computed);
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.id, 5);
    EXPECT_EQ(p.error, "[out_of_range] bad cell");
    EXPECT_EQ(quarantinedSoFar(), before + 1);

    const CellPoint good = runSweepCell(
        "test sweep", 1, identity(6), [] { return Status(); },
        [](CellPoint &q) { q.value = 1.5; });
    EXPECT_TRUE(good.ok);
    EXPECT_EQ(good.value, 1.5);
    EXPECT_EQ(quarantinedSoFar(), before + 1);
}

TEST(SweepCell, AJournaledCellReplaysBitForBitInsteadOfRecomputing)
{
    TempJournal t("cell_replay");
    auto cell = [](SweepJournal *j, int id, int *computed) {
        return runSweepCell(
            j, [&] { return journalKey("cell", id); }, "test sweep", id,
            identity(id),
            [&] {
                return id == 1 ? Status::invalidArgument("no\tgood\ncell")
                               : Status();
            },
            [&](CellPoint &q) {
                ++*computed;
                q.value = 0.1 * id;
                q.slowdown = INFINITY;
                q.flag = true;
            });
    };
    int computed = 0;
    std::vector<CellPoint> fresh;
    {
        auto j = mustOpen(t.path);
        for (int id = 0; id < 3; ++id)
            fresh.push_back(cell(j.get(), id, &computed));
        EXPECT_EQ(j->appendedRecords(), 3u);
    }
    EXPECT_EQ(computed, 2);

    auto j = mustOpen(t.path);
    for (int id = 0; id < 3; ++id) {
        const CellPoint p = cell(j.get(), id, &computed);
        EXPECT_EQ(p.id, id);
        EXPECT_EQ(p.value, fresh[id].value);
        EXPECT_EQ(p.slowdown, fresh[id].slowdown);
        EXPECT_EQ(p.flag, fresh[id].flag);
        EXPECT_EQ(p.ok, fresh[id].ok);
        EXPECT_EQ(p.error, fresh[id].error);
    }
    EXPECT_EQ(j->appendedRecords(), 0u);   // every cell replayed
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(fresh[1].error, "[invalid_argument] no\tgood\ncell");
}

TEST(SweepCell, AnUndecodablePayloadIsRecomputed)
{
    TempJournal t("cell_undecodable");
    mustOpen(t.path)->append(journalKey("cell", 0), "0x1p+0 not-a-number");
    auto j = mustOpen(t.path);
    int computed = 0;
    const CellPoint p = runSweepCell(
        j.get(), [] { return journalKey("cell", 0); }, "test sweep", 0,
        identity(0), [] { return Status(); },
        [&](CellPoint &q) {
            ++computed;
            q.value = 2.0;
        });
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(p.value, 2.0);
    EXPECT_TRUE(p.ok);
    EXPECT_EQ(j->appendedRecords(), 1u);
}
