#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "util/rng.hh"

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

TEST(Engine, InlineResumedFiberWaitReturnsToItsCallback)
{
    // A callback resumes a blocked fiber inline, as a host-IO completion
    // does. The fiber's next wait must hand control straight back to
    // that callback, even though another fiber's wake-up is due first:
    // host callbacks finish before any other event runs.
    Engine e;
    std::vector<std::string> order;
    Fiber a([&] {
        e.block();
        order.push_back("a resumed");
        e.waitUntil(10);
        order.push_back("a woke");
    });
    Fiber b([&] { order.push_back("b ran"); });
    e.scheduleFiber(0, &a);
    e.schedule(5, [&] {
        order.push_back("callback");
        e.scheduleFiber(6, &b);
        a.resume();
        order.push_back("callback returned");
    });
    e.run();
    EXPECT_EQ(order, (std::vector<std::string>{"callback", "a resumed",
                                               "callback returned", "b ran",
                                               "a woke"}));
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(b.finished());
    EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, DueFirstFiberContinuesInPlace)
{
    // A fiber whose wake-up is due before every queued event pops it
    // itself: no other event runs, the clock lands on its wake time,
    // and it is still the running fiber. A callback queued behind the
    // waits runs only after them.
    Engine e;
    std::vector<Cycles> woke;
    bool callbackRan = false;
    Fiber f([&] {
        for (int i = 1; i <= 5; ++i) {
            e.waitUntil(i);
            EXPECT_EQ(Fiber::current(), &f);
            EXPECT_FALSE(callbackRan);
            woke.push_back(e.now());
        }
    });
    e.scheduleFiber(0, &f);
    e.schedule(100, [&] { callbackRan = true; });
    e.run();
    EXPECT_EQ(woke, (std::vector<Cycles>{1, 2, 3, 4, 5}));
    EXPECT_TRUE(callbackRan);
    EXPECT_TRUE(f.finished());
}

TEST(Engine, HandedOffFibersDrainBackToTheRunLoop)
{
    // a's wait pops b's first wake-up, so b is entered fresh from a's
    // stack. b's wait hands back to a, which finishes; b finishes after
    // its own wake-up. Each finish must land in run(), which then runs
    // the callback queued last.
    Engine e;
    std::vector<std::string> order;
    Fiber a([&] {
        order.push_back("a0");
        e.waitUntil(2);
        order.push_back("a2");
    });
    Fiber b([&] {
        order.push_back("b1");
        e.waitUntil(3);
        order.push_back("b3");
    });
    e.scheduleFiber(0, &a);
    e.scheduleFiber(1, &b);
    e.schedule(4, [&] {
        EXPECT_EQ(Fiber::current(), nullptr);
        order.push_back("cb4");
    });
    e.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"a0", "b1", "a2", "b3", "cb4"}));
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(b.finished());
    EXPECT_TRUE(e.idle());
    EXPECT_EQ(Fiber::current(), nullptr);
}

/**
 * A reference scheduler: a sorted list of (when, seq) fed every
 * schedule call the engine gets. Each dispatched event must be the
 * list's earliest entry, with the engine's clock at its time.
 */
struct DispatchOracle
{
    std::map<std::pair<Cycles, uint64_t>, std::string> pending;
    uint64_t seq = 0;
    /** What the engine dispatched and what the oracle expected. */
    std::vector<std::pair<std::string, Cycles>> got, want;

    void
    scheduled(Cycles when, std::string label)
    {
        pending.emplace(std::make_pair(when, seq++), std::move(label));
    }

    /** Called first thing by every dispatched event. */
    void
    fired(const Engine& e, const std::string& label)
    {
        got.emplace_back(label, e.now());
        if (pending.empty()) {
            want.emplace_back("<nothing pending>", -1);
            return;
        }
        auto first = pending.begin();
        want.emplace_back(first->second, first->first.first);
        pending.erase(first);
    }
};

/**
 * One fiber's seeded script: waits with ties, blocks woken by a
 * callback that resumes it inline, blocks woken by a callback that
 * schedules its wake-up, and plain host callbacks.
 */
void
runScript(Engine& e, DispatchOracle& o, SplitMix64& rng, int id,
          int steps, int& nextCallback)
{
    const std::string me = "f" + std::to_string(id);
    Fiber* self = Fiber::current();
    for (int step = 0; step < steps; ++step) {
        const Cycles d = static_cast<Cycles>(rng.nextBounded(3));
        const std::string cb = "c" + std::to_string(nextCallback++);
        switch (rng.nextBounded(8)) {
          case 0:
          case 1:
          case 2:
          case 3:
            // A wait of 1..3 cycles: every fiber draws from the same
            // few times, so equal-time ties are common.
            o.scheduled(e.now() + d + 1, me);
            e.waitUntil(e.now() + d + 1);
            o.fired(e, me);
            break;
          case 4:
          case 5:
            // Blocked until a callback resumes this fiber inline; no
            // event may run before control returns to that callback.
            o.scheduled(e.now() + d, cb);
            e.schedule(e.now() + d, [&e, &o, self, cb] {
                o.fired(e, cb);
                const size_t before = o.got.size();
                self->resume();
                EXPECT_EQ(o.got.size(), before)
                    << cb << ": an event ran inside its inline resume";
            });
            e.block();
            break;
          case 6:
            // Blocked until a callback schedules the wake-up.
            o.scheduled(e.now() + d, cb);
            e.schedule(e.now() + d, [&e, &o, self, cb, me] {
                o.fired(e, cb);
                o.scheduled(e.now() + 1, me);
                e.scheduleFiber(e.now() + 1, self);
            });
            e.block();
            o.fired(e, me);
            break;
          default:
            // A plain host callback; the fiber runs on.
            o.scheduled(e.now() + d, cb);
            e.schedule(e.now() + d, [&e, &o, cb] { o.fired(e, cb); });
            break;
        }
    }
}

TEST(Engine, DispatchOrderMatchesAReferenceScheduler)
{
    constexpr int kFibers = 8;
    constexpr int kSteps = 40;
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Engine e;
        DispatchOracle o;
        int nextCallback = 0;
        std::vector<std::unique_ptr<Fiber>> fibers;
        for (int i = 0; i < kFibers; ++i) {
            fibers.push_back(std::make_unique<Fiber>(
                [&e, &o, &nextCallback, seed, i] {
                    o.fired(e, "f" + std::to_string(i));
                    SplitMix64 rng(seed * 1000 + i);
                    runScript(e, o, rng, i, kSteps, nextCallback);
                }));
            o.scheduled(i % 3, "f" + std::to_string(i));
            e.scheduleFiber(i % 3, fibers.back().get());
        }
        e.run();
        EXPECT_EQ(o.got, o.want);
        EXPECT_TRUE(o.pending.empty());
        EXPECT_GT(o.got.size(), size_t{kFibers * kSteps / 2});
        for (const auto& f : fibers)
            EXPECT_TRUE(f->finished());
        EXPECT_EQ(Fiber::current(), nullptr);
    }
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
