#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hh"

namespace ap::sim {
namespace {

/** Event @p i's time: scattered over [2, 14], with many ties. */
Cycles
scattered(int i)
{
    return 2 + (i * 7919) % 13;
}

TEST(Engine, EventsFireInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.schedule(30, [&] { order.push_back(3); });
    e.schedule(10, [&] { order.push_back(1); });
    e.schedule(20, [&] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(e.now(), 30.0);
}

TEST(Engine, TiesFireInInsertionOrder)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        e.schedule(5, [&, i] { order.push_back(i); });
    e.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, FiberAndCallbackTiesFireInInsertionOrder)
{
    // Wake-ups and callbacks share one queue and one sequence counter,
    // so at equal times neither kind goes first: insertion order holds
    // across both.
    Engine e;
    std::vector<int> order;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int i = 0; i < 10; ++i) {
        if (i % 2 == 0) {
            e.schedule(5, [&, i] { order.push_back(i); });
            continue;
        }
        fibers.push_back(std::make_unique<Fiber>([&, i] {
            order.push_back(i);
        }));
        e.scheduleFiber(5, fibers.back().get());
    }
    e.run();
    std::vector<int> want(10);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want);
    for (const auto& f : fibers)
        EXPECT_TRUE(f->finished());
}

TEST(Engine, CallbackMaySchedule)
{
    // A callback schedules 1000 events, enough to grow the queue under
    // it several times, then reads its own capture. That capture is one
    // pointer, small enough for std::function to hold inline, so a
    // callback run in place inside the queue reads freed memory (ASan).
    struct Sim
    {
        Engine e;
        std::vector<int> order;
    } sim;
    sim.e.schedule(1, [s = &sim] {
        for (int i = 0; i < 1000; ++i)
            s->e.schedule(scattered(i), [s, i] { s->order.push_back(i); });
        s->order.push_back(-1);
    });
    sim.e.run();
    std::vector<int> want(1000);
    std::iota(want.begin(), want.end(), 0);
    std::stable_sort(want.begin(), want.end(), [](int a, int b) {
        return scattered(a) < scattered(b);
    });
    want.insert(want.begin(), -1);
    EXPECT_EQ(sim.order, want);
    EXPECT_DOUBLE_EQ(sim.e.now(), 14.0);
    EXPECT_TRUE(sim.e.idle());
}

TEST(Engine, PastEventsClampToNow)
{
    Engine e;
    Cycles fired = -1;
    e.schedule(100, [&] {
        e.schedule(50, [&] { fired = e.now(); }); // in the past
    });
    e.run();
    EXPECT_DOUBLE_EQ(fired, 100.0);
}

TEST(Engine, FiberWaitUntil)
{
    Engine e;
    Cycles woke = -1;
    Fiber f([&] {
        e.waitUntil(500);
        woke = e.now();
    });
    e.scheduleFiber(0, &f);
    e.run();
    EXPECT_TRUE(f.finished());
    EXPECT_DOUBLE_EQ(woke, 500.0);
}

TEST(Engine, BlockAndExternalWake)
{
    Engine e;
    Cycles woke = -1;
    Fiber f([&] {
        e.block();
        woke = e.now();
    });
    e.scheduleFiber(0, &f);
    e.schedule(77, [&] { f.resume(); });
    e.run();
    EXPECT_TRUE(f.finished());
    EXPECT_DOUBLE_EQ(woke, 77.0);
}

TEST(Engine, BwServerSerializesTransfers)
{
    BwServer bw(10.0); // 10 bytes/cycle
    EXPECT_DOUBLE_EQ(bw.acquire(0, 100), 10.0);
    EXPECT_DOUBLE_EQ(bw.acquire(0, 100), 20.0);   // queued behind first
    EXPECT_DOUBLE_EQ(bw.acquire(100, 50), 105.0); // idle gap skipped
}

TEST(Engine, TimeMonotonicAcrossRuns)
{
    Engine e;
    e.schedule(10, [] {});
    e.run();
    EXPECT_DOUBLE_EQ(e.now(), 10.0);
    e.schedule(5, [] {}); // clamped to now
    e.run();
    EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

} // namespace
} // namespace ap::sim
