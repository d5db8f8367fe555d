/**
 * @file
 * Bit-reproducibility: two identical simulations must agree on every
 * cycle count and every statistic. The whole evaluation methodology
 * rests on this property.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "sim/device.hh"
#include "sim/sync.hh"
#include "util/rng.hh"

namespace ap::sim {
namespace {

struct RunOutcome
{
    Cycles cycles;
    std::string stats;
    uint64_t checksum;
};

/** A messy kernel: divergent stalls, atomics, locks, memory. */
RunOutcome
chaoticRun()
{
    Device dev(CostModel{}, 8 << 20);
    DeviceLock lock{"test.lock"};
    Addr buf = dev.mem().alloc(64 * 1024);
    Addr ctr = dev.mem().alloc(8);
    Cycles c = dev.launch(6, 10, [&](Warp& w) {
        SplitMix64 rng(w.globalWarpId() * 13 + 5);
        for (int i = 0; i < 20; ++i) {
            switch (rng.nextBounded(4)) {
              case 0: {
                LaneArray<Addr> a;
                for (int l = 0; l < kWarpSize; ++l)
                    a[l] = buf + rng.nextBounded(16000) * 4;
                // Scatter stores race across warps on purpose — this
                // test is about timing reproducibility, not
                // synchronization discipline.
                check::SimCheck::Relaxed relaxed;
                w.storeGlobal(a, LaneArray<uint32_t>::broadcast(
                                     static_cast<uint32_t>(i)));
                break;
              }
              case 1:
                w.stall(rng.nextBounded(500));
                break;
              case 2:
                w.atomicAdd<uint64_t>(ctr, 1);
                break;
              case 3:
                lock.acquire(w);
                w.issue(static_cast<int>(rng.nextBounded(30)));
                lock.release(w);
                break;
            }
        }
    });
    std::ostringstream os;
    dev.stats().dump(os);
    return RunOutcome{c, os.str(), dev.mem().load<uint64_t>(ctr)};
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimelines)
{
    RunOutcome a = chaoticRun();
    RunOutcome b = chaoticRun();
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.checksum, b.checksum);
}

TEST(Determinism, StatsDumpIsStable)
{
    RunOutcome a = chaoticRun();
    EXPECT_NE(a.stats.find("sim.instructions"), std::string::npos);
    EXPECT_NE(a.stats.find("sim.atomics"), std::string::npos);
}

} // namespace
} // namespace ap::sim
