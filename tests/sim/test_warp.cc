#include <limits>

#include <gtest/gtest.h>

#include "sim/device.hh"

namespace ap::sim {
namespace {

/** Run @p fn on a single warp and return elapsed cycles. */
template <typename Fn>
Cycles
runOneWarp(Device& dev, Fn&& fn)
{
    return dev.launch(1, 1, [&](Warp& w) { fn(w); });
}

TEST(Warp, LaneIota)
{
    auto ids = Warp::laneIds();
    for (int i = 0; i < kWarpSize; ++i)
        EXPECT_EQ(ids[i], static_cast<uint32_t>(i));
}

TEST(Warp, GlobalLoadStoreRoundTrip)
{
    Device dev(CostModel{}, 1 << 20);
    Addr buf = dev.mem().alloc(kWarpSize * 4);
    runOneWarp(dev, [&](Warp& w) {
        auto addrs = LaneArray<Addr>::iota(buf, 4);
        LaneArray<uint32_t> vals;
        for (int i = 0; i < kWarpSize; ++i)
            vals[i] = 100 + i;
        w.storeGlobal(addrs, vals);
        auto back = w.loadGlobal<uint32_t>(addrs);
        for (int i = 0; i < kWarpSize; ++i)
            EXPECT_EQ(back[i], 100u + i);
    });
}

TEST(Warp, MaskedStoreLeavesInactiveLanes)
{
    Device dev(CostModel{}, 1 << 20);
    Addr buf = dev.mem().alloc(kWarpSize * 4);
    runOneWarp(dev, [&](Warp& w) {
        auto addrs = LaneArray<Addr>::iota(buf, 4);
        w.storeGlobal(addrs, LaneArray<uint32_t>::broadcast(7));
        w.storeGlobal(addrs, LaneArray<uint32_t>::broadcast(9), 0x3);
        auto back = w.loadGlobal<uint32_t>(addrs);
        EXPECT_EQ(back[0], 9u);
        EXPECT_EQ(back[1], 9u);
        for (int i = 2; i < kWarpSize; ++i)
            EXPECT_EQ(back[i], 7u);
    });
}

TEST(Warp, BallotAndVotes)
{
    Device dev(CostModel{}, 1 << 20);
    runOneWarp(dev, [&](Warp& w) {
        LaneArray<int> pred;
        for (int i = 0; i < kWarpSize; ++i)
            pred[i] = (i % 2 == 0);
        EXPECT_EQ(w.ballot(pred), 0x55555555u);
        EXPECT_FALSE(w.all(pred));
        EXPECT_TRUE(w.any(pred));
        EXPECT_TRUE(w.all(pred, 0x55555555u)); // only even lanes active
        EXPECT_FALSE(w.any(pred, 0xAAAAAAAAu));
    });
}

TEST(Warp, ShflBroadcast)
{
    Device dev(CostModel{}, 1 << 20);
    runOneWarp(dev, [&](Warp& w) {
        auto v = LaneArray<int>::iota(100);
        EXPECT_EQ(w.shfl(v, 5), 105);
        EXPECT_EQ(w.shfl(v, 31), 131);
    });
}

TEST(Warp, ShflXorButterflyReduction)
{
    Device dev(CostModel{}, 1 << 20);
    runOneWarp(dev, [&](Warp& w) {
        auto v = LaneArray<int>::iota(1); // 1..32, sum = 528
        for (int m = kWarpSize / 2; m >= 1; m >>= 1) {
            auto o = w.shflXor(v, m);
            for (int i = 0; i < kWarpSize; ++i)
                v[i] += o[i];
        }
        for (int i = 0; i < kWarpSize; ++i)
            EXPECT_EQ(v[i], 528);
    });
}

TEST(WarpDeath, ShflXorMaskOutOfRange)
{
    Device dev(CostModel{}, 1 << 20);
    auto v = LaneArray<int>::iota(0);
    EXPECT_DEATH(runOneWarp(dev, [&](Warp& w) { w.shflXor(v, 32); }),
                 "shflXor lane mask out of range");
    EXPECT_DEATH(runOneWarp(dev, [&](Warp& w) { w.shflXor(v, -1); }),
                 "shflXor lane mask out of range");
}

TEST(WarpDeath, ShflDownNegativeDelta)
{
    Device dev(CostModel{}, 1 << 20);
    auto v = LaneArray<int>::iota(0);
    EXPECT_DEATH(runOneWarp(dev, [&](Warp& w) { w.shflDown(v, -1); }),
                 "shflDown delta is negative");
}

TEST(Warp, ShflDownKeepsLanesPastTheWarp)
{
    Device dev(CostModel{}, 1 << 20);
    runOneWarp(dev, [&](Warp& w) {
        auto v = LaneArray<int>::iota(100);
        auto down = w.shflDown(v, 4);
        for (int i = 0; i < kWarpSize; ++i)
            EXPECT_EQ(down[i], 100 + (i + 4 < kWarpSize ? i + 4 : i));
        auto far = w.shflDown(v, std::numeric_limits<int>::max());
        for (int i = 0; i < kWarpSize; ++i)
            EXPECT_EQ(far[i], 100 + i);
    });
}

TEST(Warp, FfsPopc)
{
    EXPECT_EQ(ffs32(0), 0);
    EXPECT_EQ(ffs32(1), 1);
    EXPECT_EQ(ffs32(0x80000000u), 32);
    EXPECT_EQ(ffs32(0b1010000), 5);
    EXPECT_EQ(popc32(0), 0);
    EXPECT_EQ(popc32(0xffffffffu), 32);
    EXPECT_EQ(popc32(0x55555555u), 16);
}

TEST(Warp, AtomicAddAccumulatesAcrossWarps)
{
    Device dev(CostModel{}, 1 << 20);
    Addr ctr = dev.mem().alloc(8);
    dev.mem().store<uint64_t>(ctr, 0);
    dev.launch(4, 8, [&](Warp& w) { w.atomicAdd<uint64_t>(ctr, 3); });
    EXPECT_EQ(dev.mem().load<uint64_t>(ctr), 4u * 8u * 3u);
}

TEST(Warp, AtomicCasTakesOnlyOnce)
{
    Device dev(CostModel{}, 1 << 20);
    Addr flag = dev.mem().alloc(4);
    Addr wins = dev.mem().alloc(4);
    dev.mem().store<uint32_t>(flag, 0);
    dev.mem().store<uint32_t>(wins, 0);
    dev.launch(2, 8, [&](Warp& w) {
        if (w.atomicCas<uint32_t>(flag, 0, 1) == 0)
            w.atomicAdd<uint32_t>(wins, 1);
    });
    EXPECT_EQ(dev.mem().load<uint32_t>(wins), 1u);
}

TEST(Warp, CopyGlobalMovesBytes)
{
    Device dev(CostModel{}, 1 << 20);
    Addr src = dev.mem().alloc(8192);
    Addr dst = dev.mem().alloc(8192);
    for (int i = 0; i < 8192; ++i)
        dev.mem().store<uint8_t>(src + i, static_cast<uint8_t>(i * 7));
    runOneWarp(dev, [&](Warp& w) { w.copyGlobal(dst, src, 8192); });
    for (int i = 0; i < 8192; ++i)
        EXPECT_EQ(dev.mem().load<uint8_t>(dst + i),
                  static_cast<uint8_t>(i * 7));
}

TEST(Warp, IssueAdvancesTimeSerially)
{
    CostModel cm;
    Device dev(cm, 1 << 20);
    Cycles before = 0, after = 0;
    runOneWarp(dev, [&](Warp& w) {
        before = w.now();
        w.issue(100);
        after = w.now();
    });
    // A lone warp pays the dependent-chain latency per instruction.
    EXPECT_NEAR(after - before, 100 * cm.depLatencyPerInstr, 1e-9);
}

TEST(Warp, LoadLatencyMatchesModel)
{
    CostModel cm;
    Device dev(cm, 1 << 20);
    Addr buf = dev.mem().alloc(kWarpSize * 4);
    Cycles dt = 0;
    runOneWarp(dev, [&](Warp& w) {
        auto addrs = LaneArray<Addr>::iota(buf, 4);
        Cycles t0 = w.now();
        (void)w.loadGlobal<uint32_t>(addrs);
        dt = w.now() - t0;
    });
    // issue (1 instr) + 128B transfer + load latency
    Cycles expect = cm.depLatencyPerInstr + 128.0 / cm.memBytesPerCycle +
                    cm.memLatency;
    EXPECT_NEAR(dt, expect, 1e-6);
}

TEST(Warp, AsyncLoadOverlapsWithIssue)
{
    CostModel cm;
    Device dev(cm, 1 << 20);
    Addr buf = dev.mem().alloc(kWarpSize * 4);
    Cycles dt = 0;
    runOneWarp(dev, [&](Warp& w) {
        auto addrs = LaneArray<Addr>::iota(buf, 4);
        Cycles t0 = w.now();
        auto p = w.loadGlobalAsync<uint32_t>(addrs);
        w.issue(20); // overlapped work
        w.waitUntil(p.readyAt);
        dt = w.now() - t0;
    });
    // The 20 overlapped instructions hide inside the memory latency.
    Cycles expect = cm.depLatencyPerInstr + 128.0 / cm.memBytesPerCycle +
                    cm.memLatency;
    EXPECT_NEAR(dt, expect, 1e-6);
}

} // namespace
} // namespace ap::sim
