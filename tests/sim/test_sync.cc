#include <gtest/gtest.h>

#include "sim/device.hh"
#include "sim/sync.hh"

namespace ap::sim {
namespace {

TEST(Sync, MutualExclusion)
{
    Device dev(CostModel{}, 1 << 20);
    DeviceLock lock{"test.lock"};
    int inCrit = 0, peak = 0;
    dev.launch(4, 8, [&](Warp& w) {
        lock.acquire(w);
        ++inCrit;
        peak = std::max(peak, inCrit);
        w.stall(500); // critical section with a yield point
        --inCrit;
        lock.release(w);
    });
    EXPECT_EQ(peak, 1);
    EXPECT_FALSE(lock.isHeld());
}

TEST(Sync, AllCriticalSectionsExecute)
{
    Device dev(CostModel{}, 1 << 20);
    DeviceLock lock{"test.lock"};
    int count = 0;
    dev.launch(8, 4, [&](Warp& w) {
        lock.acquire(w);
        w.stall(10);
        ++count;
        lock.release(w);
    });
    EXPECT_EQ(count, 32);
}

TEST(Sync, TryAcquireFailsWhenHeld)
{
    Device dev(CostModel{}, 1 << 20);
    DeviceLock lock{"test.lock"};
    int failures = 0, successes = 0;
    dev.launch(1, 2, [&](Warp& w) {
        if (w.warpInBlock() == 0) {
            lock.acquire(w);
            w.stall(10000);
            lock.release(w);
        } else {
            w.stall(1000); // while warp 0 holds the lock
            if (lock.tryAcquire(w)) {
                ++successes;
                lock.release(w);
            } else {
                ++failures;
            }
        }
    });
    EXPECT_EQ(failures, 1);
    EXPECT_EQ(successes, 0);
}

TEST(Sync, ContendedAcquireCostsTime)
{
    Device dev(CostModel{}, 1 << 20);
    DeviceLock lock{"test.lock"};
    Cycles uncontended = 0, contended = 0;
    dev.launch(1, 2, [&](Warp& w) {
        if (w.warpInBlock() == 0) {
            Cycles t0 = w.now();
            lock.acquire(w);
            uncontended = w.now() - t0;
            w.stall(20000);
            lock.release(w);
        } else {
            w.stall(100);
            Cycles t0 = w.now();
            lock.acquire(w);
            contended = w.now() - t0;
            lock.release(w);
        }
    });
    EXPECT_GT(contended, uncontended + 10000);
}

TEST(Sync, FifoHandoff)
{
    Device dev(CostModel{}, 1 << 20);
    DeviceLock lock{"test.lock"};
    std::vector<int> order;
    dev.launch(1, 4, [&](Warp& w) {
        // Stagger arrivals so the queue order is deterministic.
        w.stall(1 + 100.0 * w.warpInBlock());
        lock.acquire(w);
        order.push_back(w.warpInBlock());
        w.stall(5000);
        lock.release(w);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

} // namespace
} // namespace ap::sim
