/**
 * @file
 * Unit and property tests for the set-associative cache.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "util/rng.hh"

using namespace ena;

namespace {

CacheParams
smallCache(ReplPolicy policy = ReplPolicy::Lru)
{
    // 4 KiB, 64 B lines, 4-way: 16 sets.
    return {4096, 64, 4, policy};
}

} // anonymous namespace

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103F, false).hit);    // same line
    EXPECT_FALSE(c.access(0x1040, false).hit);   // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0x2000));
    c.access(0x2000, false);
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_EQ(c.hits(), 0u);   // probe counted nothing
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache(ReplPolicy::Lru));
    // Four lines mapping to set 0 fill the ways (set stride =
    // 16 sets * 64 B = 1 KiB).
    for (std::uint64_t i = 0; i < 4; ++i)
        c.access(i * 1024, false);
    // Touch line 0 so line 1 becomes LRU.
    c.access(0, false);
    // A fifth line evicts line 1.
    c.access(4 * 1024, false);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(1 * 1024));
    EXPECT_TRUE(c.probe(4 * 1024));
}

TEST(Cache, FifoIgnoresReuse)
{
    Cache c(smallCache(ReplPolicy::Fifo));
    for (std::uint64_t i = 0; i < 4; ++i)
        c.access(i * 1024, false);
    c.access(0, false);               // reuse does not refresh FIFO age
    c.access(4 * 1024, false);        // evicts line 0 (oldest fill)
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(c.probe(1 * 1024));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(smallCache());
    c.access(0, true);   // dirty line in set 0
    for (std::uint64_t i = 1; i <= 4; ++i) {
        CacheOutcome out = c.access(i * 1024, false);
        if (out.writeback) {
            EXPECT_EQ(out.victimAddr, 0u);
            EXPECT_EQ(c.writebacks(), 1u);
            return;
        }
    }
    FAIL() << "dirty line was never evicted";
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(smallCache());
    for (std::uint64_t i = 0; i <= 4; ++i) {
        CacheOutcome out = c.access(i * 1024, false);
        EXPECT_FALSE(out.writeback);
    }
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache c(smallCache());
    c.access(0, false);   // clean fill
    c.access(0, true);    // dirtied by write hit
    bool saw_wb = false;
    for (std::uint64_t i = 1; i <= 4 && !saw_wb; ++i)
        saw_wb = c.access(i * 1024, false).writeback;
    EXPECT_TRUE(saw_wb);
}

TEST(Cache, HitRate)
{
    Cache c(smallCache());
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(64, false);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(Cache, WorkingSetWithinCapacityEventuallyAllHits)
{
    Cache c(smallCache());
    // 32 lines in a 64-line cache, aligned so sets are shared evenly.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < 32; ++i)
            c.access(i * 64, false);
    }
    // Final pass must be all hits.
    std::uint64_t h = c.hits();
    for (std::uint64_t i = 0; i < 32; ++i)
        c.access(i * 64, false);
    EXPECT_EQ(c.hits() - h, 32u);
}

TEST(Cache, StreamingNeverHits)
{
    Cache c(smallCache());
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_FALSE(c.access(i * 64, false).hit);
}

class CachePolicyTest : public testing::TestWithParam<ReplPolicy>
{
};

// Property: the number of resident lines never exceeds capacity, and
// every access inserts its line.
TEST_P(CachePolicyTest, InsertionInvariant)
{
    Cache c(smallCache(GetParam()));
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t addr = rng.below(1 << 16) & ~63ull;
        c.access(addr, rng.chance(0.3));
        EXPECT_TRUE(c.probe(addr));
    }
    EXPECT_EQ(c.hits() + c.misses(), 5000u);
}

// Property: LRU is at least as good as Random for a looping working
// set slightly above capacity... not guaranteed per-seed; instead check
// all policies produce sensible hit rates for an in-capacity loop.
TEST_P(CachePolicyTest, InCapacityLoopHitsEventually)
{
    Cache c(smallCache(GetParam()));
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t i = 0; i < 64; ++i)
            c.access(i * 64, false);
    }
    EXPECT_GT(c.hitRate(), 0.7);
}

INSTANTIATE_TEST_SUITE_P(Policies, CachePolicyTest,
                         testing::Values(ReplPolicy::Lru,
                                         ReplPolicy::Fifo,
                                         ReplPolicy::Random),
                         [](const auto &info) {
                             switch (info.param) {
                               case ReplPolicy::Lru: return "Lru";
                               case ReplPolicy::Fifo: return "Fifo";
                               default: return "Random";
                             }
                         });

TEST(CacheDeathTest, BadGeometryIsFatal)
{
    EXPECT_EXIT(Cache({4096, 48, 4, ReplPolicy::Lru}),
                testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(Cache({4096, 64, 0, ReplPolicy::Lru}),
                testing::ExitedWithCode(1), "at least one way");
    EXPECT_EXIT(Cache({100, 64, 4, ReplPolicy::Lru}),
                testing::ExitedWithCode(1), "not divisible");
}
