/**
 * @file
 * Tests for the sweep-cell runner: an invalid or throwing cell is
 * quarantined, counted and left at its identity, and a good cell
 * computes.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/sweep_cell.hh"
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

} // anonymous namespace

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
