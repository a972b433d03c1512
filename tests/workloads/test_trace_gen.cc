/**
 * @file
 * Statistical-property tests of the synthetic trace generator: the
 * emitted stream must match the profile's compute/memory mix, locality,
 * write fraction, sharing, and address-range contracts.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "workloads/trace_gen.hh"

using namespace ena;

namespace {

StreamLayout
defaultLayout()
{
    StreamLayout l;
    l.privateBase = 1ull << 30;
    l.privateSize = 1ull << 20;
    l.sharedBase = 0;
    l.sharedSize = 16ull << 20;
    return l;
}

struct StreamStats
{
    std::uint64_t computeCycles = 0;
    std::uint64_t memOps = 0;
    std::uint64_t stores = 0;
    std::uint64_t sharedOps = 0;
    std::uint64_t sequential = 0;
    std::uint64_t lastAddr = ~std::uint64_t(0);
};

StreamStats
drive(TraceGenerator &gen, const StreamLayout &layout, int mem_ops)
{
    StreamStats s;
    while (s.memOps < static_cast<std::uint64_t>(mem_ops)) {
        TraceOp op = gen.next();
        if (op.kind == TraceOp::Kind::Compute) {
            s.computeCycles += op.computeCycles;
            continue;
        }
        ++s.memOps;
        if (op.kind == TraceOp::Kind::Store)
            ++s.stores;
        bool shared = op.addr >= layout.sharedBase &&
                      op.addr < layout.sharedBase + layout.sharedSize;
        if (shared)
            ++s.sharedOps;
        if (op.addr == s.lastAddr + TraceGenerator::accessBytes)
            ++s.sequential;
        s.lastAddr = op.addr;
    }
    return s;
}

} // anonymous namespace

TEST(TraceGen, DeterministicForSameSeed)
{
    StreamLayout layout = defaultLayout();
    TraceGenerator a(profileFor(App::CoMD), layout, 5);
    TraceGenerator b(profileFor(App::CoMD), layout, 5);
    for (int i = 0; i < 1000; ++i) {
        TraceOp x = a.next();
        TraceOp y = b.next();
        EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.computeCycles, y.computeCycles);
    }
}

TEST(TraceGen, AddressesStayInConfiguredRegions)
{
    StreamLayout layout = defaultLayout();
    TraceGenerator gen(profileFor(App::XSBench), layout, 3);
    for (int i = 0; i < 20000; ++i) {
        TraceOp op = gen.next();
        if (op.kind == TraceOp::Kind::Compute)
            continue;
        bool in_private =
            op.addr >= layout.privateBase &&
            op.addr + op.size <= layout.privateBase + layout.privateSize;
        bool in_shared =
            op.addr >= layout.sharedBase &&
            op.addr + op.size <= layout.sharedBase + layout.sharedSize;
        ASSERT_TRUE(in_private || in_shared)
            << "address 0x" << std::hex << op.addr;
    }
}

class TraceGenParamTest : public testing::TestWithParam<App>
{
};

TEST_P(TraceGenParamTest, ComputeToMemoryRatioMatchesProfile)
{
    const KernelProfile &p = profileFor(GetParam());
    StreamLayout layout = defaultLayout();
    TraceGenerator gen(p, layout, 17);
    StreamStats s = drive(gen, layout, 5000);
    double expected =
        p.computePerMemByte * TraceGenerator::accessBytes;
    double measured =
        static_cast<double>(s.computeCycles) / s.memOps;
    EXPECT_NEAR(measured, expected, expected * 0.05 + 0.5);
}

TEST_P(TraceGenParamTest, WriteFractionMatchesProfile)
{
    const KernelProfile &p = profileFor(GetParam());
    StreamLayout layout = defaultLayout();
    TraceGenerator gen(p, layout, 23);
    StreamStats s = drive(gen, layout, 8000);
    double measured = static_cast<double>(s.stores) / s.memOps;
    EXPECT_NEAR(measured, p.writeFraction, 0.03);
}

TEST_P(TraceGenParamTest, SharedFractionMatchesProfile)
{
    const KernelProfile &p = profileFor(GetParam());
    StreamLayout layout = defaultLayout();
    TraceGenerator gen(p, layout, 29);
    StreamStats s = drive(gen, layout, 8000);
    double measured = static_cast<double>(s.sharedOps) / s.memOps;
    EXPECT_NEAR(measured, p.sharedFraction, 0.04);
}

TEST_P(TraceGenParamTest, SpatialLocalityShowsInStream)
{
    const KernelProfile &p = profileFor(GetParam());
    // Use a private-only layout so cross-region switches do not break
    // sequences.
    StreamLayout layout = defaultLayout();
    layout.sharedSize = 0;
    KernelProfile solo = p;
    TraceGenerator gen(solo, layout, 31);
    StreamStats s = drive(gen, layout, 8000);
    double measured = static_cast<double>(s.sequential) / s.memOps;
    // Sequential steps happen on locality hits that do not wrap.
    EXPECT_NEAR(measured, p.spatialLocality, 0.06);
}

INSTANTIATE_TEST_SUITE_P(AllApps, TraceGenParamTest,
                         testing::ValuesIn(allApps()),
                         [](const auto &info) {
                             std::string n = appName(info.param);
                             for (char &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

TEST(TraceGen, AlignedAccessSizes)
{
    StreamLayout layout = defaultLayout();
    TraceGenerator gen(profileFor(App::SNAP), layout, 41);
    for (int i = 0; i < 2000; ++i) {
        TraceOp op = gen.next();
        if (op.kind == TraceOp::Kind::Compute) {
            EXPECT_GT(op.computeCycles, 0u);
            continue;
        }
        EXPECT_EQ(op.size, TraceGenerator::accessBytes);
        EXPECT_EQ(op.addr % TraceGenerator::accessBytes, 0u);
    }
}

TEST(TraceGenDeathTest, TinyPrivateRegionPanics)
{
    StreamLayout layout;
    layout.privateBase = 0;
    layout.privateSize = 16;   // smaller than one access
    EXPECT_DEATH(TraceGenerator(profileFor(App::CoMD), layout, 1),
                 "private region too small");
}
