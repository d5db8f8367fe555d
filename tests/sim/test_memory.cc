#include <algorithm>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "sim/cost_model.hh"
#include "sim/memory.hh"

namespace ap::sim {
namespace {

CostModel
cm()
{
    return CostModel{};
}

TEST(Memory, LoadStoreRoundTrip)
{
    GlobalMemory m(1 << 20, cm());
    m.store<uint64_t>(128, 0xdeadbeefULL);
    EXPECT_EQ(m.load<uint64_t>(128), 0xdeadbeefULL);
    m.store<float>(512, 3.5f);
    EXPECT_FLOAT_EQ(m.load<float>(512), 3.5f);
}

TEST(Memory, AllocAlignsAndAdvances)
{
    GlobalMemory m(1 << 20, cm());
    Addr a = m.alloc(100, 256);
    Addr b = m.alloc(100, 256);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(Memory, AllocNeverReturnsNull)
{
    GlobalMemory m(1 << 20, cm());
    EXPECT_NE(m.alloc(8, 1), 0u);
}

TEST(Memory, FreshMemoryReadsZero)
{
    // The page table relies on this: its slots start empty because
    // device memory reads zero until written.
    constexpr size_t kBytes = size_t{64} << 20;
    constexpr size_t kMiB = size_t{1} << 20;
    constexpr size_t kPage = 4096;
    GlobalMemory m(kBytes, cm());
    Addr first = m.alloc(8, 8);
    EXPECT_EQ(m.load<uint64_t>(first), 0u);
    for (Addr a = kMiB; a < kBytes; a += kMiB)
        EXPECT_EQ(m.load<uint64_t>(a), 0u) << "at " << a;
    EXPECT_EQ(m.load<uint64_t>(kBytes - 8), 0u);
    auto isZero = [](uint8_t b) { return b == 0; };
    const uint8_t* page = m.raw(kMiB, kPage);
    EXPECT_TRUE(std::all_of(page, page + kPage, isZero));

    // So does a memory built on a block that a dirtied one just freed:
    // the allocator may hand the same bytes out again.
    for (int round = 0; round < 3; ++round) {
        GlobalMemory small(kMiB, cm());
        uint8_t* all = small.raw(0, kMiB);
        EXPECT_TRUE(std::all_of(all, all + kMiB, isZero)) << "round "
                                                          << round;
        // Read the dirt back, so the compiler keeps the memset.
        std::memset(all, 0xa5, kMiB);
        EXPECT_EQ(std::count(all, all + kMiB, 0xa5), std::ptrdiff_t(kMiB));
    }
}

TEST(Memory, ReadTimingIncludesLatencyAndBandwidth)
{
    CostModel c;
    c.memLatency = 200;
    c.memBytesPerCycle = 100;
    GlobalMemory m(1 << 20, c);
    // 1000 bytes at 100 B/cyc: occupancy ends at 10, data at 210.
    EXPECT_DOUBLE_EQ(m.readDone(0, 1000), 210.0);
    // Next read queues behind the first occupancy window.
    EXPECT_DOUBLE_EQ(m.readDone(0, 1000), 220.0);
}

TEST(Memory, WriteTimingOnlyOccupiesBandwidth)
{
    CostModel c;
    c.memLatency = 200;
    c.memBytesPerCycle = 100;
    GlobalMemory m(1 << 20, c);
    EXPECT_DOUBLE_EQ(m.writeDone(0, 1000), 10.0);
}

TEST(Memory, CoalescingSingleSegment)
{
    GlobalMemory m(1 << 20, cm());
    // 32 lanes x 4B contiguous = 128B = one 128B segment.
    auto a = LaneArray<Addr>::iota(4096, 4);
    EXPECT_DOUBLE_EQ(m.coalescedTraffic(a, 4, kFullMask), 128.0);
}

TEST(Memory, CoalescingScatteredLanes)
{
    GlobalMemory m(1 << 20, cm());
    // Each lane hits its own page: 32 distinct segments.
    LaneArray<Addr> a;
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = 4096 + i * 4096;
    EXPECT_DOUBLE_EQ(m.coalescedTraffic(a, 4, kFullMask), 32 * 128.0);
}

TEST(Memory, CoalescingRespectsMask)
{
    GlobalMemory m(1 << 20, cm());
    LaneArray<Addr> a;
    for (int i = 0; i < kWarpSize; ++i)
        a[i] = 4096 + i * 4096;
    EXPECT_DOUBLE_EQ(m.coalescedTraffic(a, 4, 0x1), 128.0);
    EXPECT_DOUBLE_EQ(m.coalescedTraffic(a, 4, 0xF), 4 * 128.0);
}

TEST(Memory, CoalescingStraddle)
{
    GlobalMemory m(1 << 20, cm());
    // A single lane whose 8B access straddles a 128B boundary.
    LaneArray<Addr> a = LaneArray<Addr>::broadcast(124);
    EXPECT_DOUBLE_EQ(m.coalescedTraffic(a, 8, 0x1), 256.0);
}

TEST(Memory, DuplicateAddressesCoalesce)
{
    GlobalMemory m(1 << 20, cm());
    auto a = LaneArray<Addr>::broadcast(8192);
    EXPECT_DOUBLE_EQ(m.coalescedTraffic(a, 4, kFullMask), 128.0);
}

TEST(MemoryDeath, OutOfBoundsLoadPanics)
{
    GlobalMemory m(1024, cm());
    EXPECT_DEATH(m.load<uint64_t>(1020), "out of bounds");
}

// An address or length near 2^64 must not wrap past the bounds checks.
TEST(MemoryDeath, LoadNearTheTopOfTheAddressSpacePanics)
{
    GlobalMemory m(1024, cm());
    EXPECT_DEATH(m.load<uint64_t>(~Addr{0} - 1), "out of bounds");
}

TEST(MemoryDeath, RawSpanThatWrapsPanics)
{
    GlobalMemory m(1024, cm());
    // 512 + len wraps to 256, inside the array.
    EXPECT_DEATH(m.raw(512, ~size_t{0} - 255), "out of bounds");
}

TEST(MemoryDeath, AllocOfSizeMaxPanics)
{
    GlobalMemory m(1024, cm());
    EXPECT_DEATH(m.alloc(SIZE_MAX), "device memory exhausted");
}

} // namespace
} // namespace ap::sim
