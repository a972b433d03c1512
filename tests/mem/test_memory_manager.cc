/**
 * @file
 * Unit tests for the multi-level memory manager: first-touch placement,
 * epoch migration, hardware-cache mode, static interleave, pinning, and
 * capacity accounting.
 */

#include <gtest/gtest.h>

#include "mem/memory_manager.hh"
#include "util/rng.hh"

using namespace ena;

namespace {

MemoryManagerParams
smallParams(MemMode mode)
{
    MemoryManagerParams p;
    p.mode = mode;
    p.pageBytes = 4096;
    p.inPackageBytes = 64ull * 4096;    // 64 pages in-package
    p.externalBytes = 192ull * 4096;    // 192 pages external
    p.epochAccesses = 256;
    p.migrateFraction = 0.25;
    return p;
}

} // anonymous namespace

TEST(MemoryManager, FirstTouchFillsInPackage)
{
    MemoryManager mgr(smallParams(MemMode::SoftwareManaged));
    // First 64 distinct pages land in-package.
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_EQ(static_cast<int>(mgr.access(p * 4096, false)),
                  static_cast<int>(MemLevel::InPackage));
    // The next pages overflow to external.
    EXPECT_EQ(static_cast<int>(mgr.access(100 * 4096, false)),
              static_cast<int>(MemLevel::External));
}

TEST(MemoryManager, RepeatAccessesHitSameLevel)
{
    MemoryManager mgr(smallParams(MemMode::SoftwareManaged));
    mgr.access(0, false);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(static_cast<int>(mgr.access(40, false)),
                  static_cast<int>(MemLevel::InPackage));
}

TEST(MemoryManager, HotPagesMigrateIn)
{
    MemoryManager mgr(smallParams(MemMode::SoftwareManaged));
    // Fill in-package with 64 pages touched once.
    for (std::uint64_t p = 0; p < 64; ++p)
        mgr.access(p * 4096, false);
    // Hammer a single external page across several epochs.
    std::uint64_t hot = 200 * 4096;
    for (int i = 0; i < 2000; ++i)
        mgr.access(hot, false);
    EXPECT_GT(mgr.migrations(), 0u);
    EXPECT_EQ(static_cast<int>(mgr.access(hot, false)),
              static_cast<int>(MemLevel::InPackage));
}

TEST(MemoryManager, HitRateImprovesWithSkewedAccess)
{
    // 80% of accesses to a quarter of the footprint: software
    // management must beat static interleaving.
    auto drive = [](MemMode mode) {
        MemoryManager mgr(smallParams(mode));
        Rng rng(5);
        for (int i = 0; i < 50000; ++i) {
            std::uint64_t page = rng.chance(0.8)
                                     ? rng.below(60)
                                     : 60 + rng.below(196);
            mgr.access(page * 4096, false);
        }
        return mgr.inPackageHitRate();
    };
    double sw = drive(MemMode::SoftwareManaged);
    double st = drive(MemMode::StaticInterleave);
    EXPECT_GT(sw, st + 0.2);
    EXPECT_GT(sw, 0.7);
}

TEST(MemoryManager, HwCacheModeHitsAfterFill)
{
    MemoryManager mgr(smallParams(MemMode::HwCache));
    EXPECT_EQ(static_cast<int>(mgr.access(0, false)),
              static_cast<int>(MemLevel::External));   // cold fill
    EXPECT_EQ(static_cast<int>(mgr.access(64, false)),
              static_cast<int>(MemLevel::InPackage));  // now cached
}

TEST(MemoryManager, HwCacheConflictEviction)
{
    MemoryManager mgr(smallParams(MemMode::HwCache));
    std::uint64_t a = 0;
    std::uint64_t b = 64ull * 4096;   // same direct-mapped set
    mgr.access(a, false);
    mgr.access(b, false);             // evicts a
    EXPECT_EQ(static_cast<int>(mgr.access(a, false)),
              static_cast<int>(MemLevel::External));
}

TEST(MemoryManager, HwCacheSacrificesAddressableCapacity)
{
    MemoryManager sw(smallParams(MemMode::SoftwareManaged));
    MemoryManager hw(smallParams(MemMode::HwCache));
    // Paper Section II-B3: cache mode loses the in-package capacity
    // from the addressable space (20% for 256 GB of 1.25 TB).
    EXPECT_EQ(sw.addressableBytes(), 256ull * 4096);
    EXPECT_EQ(hw.addressableBytes(), 192ull * 4096);
}

TEST(MemoryManager, StaticInterleaveMatchesCapacityRatio)
{
    MemoryManager mgr(smallParams(MemMode::StaticInterleave));
    Rng rng(9);
    for (int i = 0; i < 50000; ++i)
        mgr.access(rng.below(100000) * 4096, false);
    // In-package share of capacity = 64/256 = 0.25.
    EXPECT_NEAR(mgr.inPackageHitRate(), 0.25, 0.02);
}

TEST(MemoryManager, AccessCountersConsistent)
{
    MemoryManager mgr(smallParams(MemMode::StaticInterleave));
    for (int i = 0; i < 100; ++i)
        mgr.access(static_cast<std::uint64_t>(i) * 4096, false);
    EXPECT_EQ(mgr.accesses(), 100u);
    EXPECT_LE(mgr.inPackageAccesses(), mgr.accesses());
    EXPECT_NEAR(mgr.inPackageHitRate(),
                static_cast<double>(mgr.inPackageAccesses()) / 100.0,
                1e-12);
}
