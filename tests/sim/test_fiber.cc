#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fiber.hh"

namespace ap::sim {
namespace {

TEST(Fiber, RunsToCompletion)
{
    int x = 0;
    Fiber f([&] { x = 42; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber f([&] {
        trace.push_back(1);
        Fiber::current()->yield();
        trace.push_back(3);
        Fiber::current()->yield();
        trace.push_back(5);
    });
    f.resume();
    trace.push_back(2);
    f.resume();
    trace.push_back(4);
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber* seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManyInterleavedFibers)
{
    const int n = 100;
    std::vector<int> counts(n, 0);
    std::vector<std::unique_ptr<Fiber>> fs;
    for (int i = 0; i < n; ++i) {
        fs.push_back(std::make_unique<Fiber>([&, i] {
            for (int k = 0; k < 3; ++k) {
                counts[i]++;
                Fiber::current()->yield();
            }
        }));
    }
    for (int round = 0; round < 4; ++round)
        for (auto& f : fs)
            if (!f->finished())
                f->resume();
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(counts[i], 3);
}

TEST(Fiber, LocalStateSurvivesYield)
{
    long result = 0;
    Fiber f([&] {
        long acc = 0;
        for (int i = 1; i <= 10; ++i) {
            acc += i;
            Fiber::current()->yield();
        }
        result = acc;
    });
    while (!f.finished())
        f.resume();
    EXPECT_EQ(result, 55);
}

TEST(Fiber, FloatingPointControlStateIsPerFiber)
{
    // The rounding mode lives in the x87 control word and in MXCSR,
    // which the SysV ABI makes callee-saved; each fiber keeps its own.
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    volatile double one = 1.0;
    volatile double three = 3.0;
    const double nearest = one / three;
    int modeAfterYield = -1;
    double thirdAfterYield = 0;
    Fiber f([&] {
        std::fesetround(FE_UPWARD);
        Fiber::current()->yield();
        modeAfterYield = std::fegetround();
        thirdAfterYield = one / three;
    });
    f.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(one / three, nearest);
    f.resume();
    EXPECT_EQ(modeAfterYield, FE_UPWARD);
    EXPECT_GT(thirdAfterYield, nearest);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, StackIsAlignedOnEntryAndAfterYields)
{
    std::vector<uintptr_t> addrs;
    std::string text;
    Fiber f([&] {
        for (int i = 0; i < 4; ++i) {
            alignas(64) char buf[64] = {};
            // The volatile round trip keeps the compiler from folding
            // the check below from the declared alignment.
            volatile uintptr_t addr = reinterpret_cast<uintptr_t>(buf);
            addrs.push_back(uintptr_t{addr});
            Fiber::current()->yield();
        }
        // std::to_string(double) formats through a variadic call, whose
        // prologue spills the vector registers with aligned stores.
        text = std::to_string(2.5);
    });
    while (!f.finished())
        f.resume();
    ASSERT_EQ(addrs.size(), 4u);
    for (uintptr_t a : addrs)
        EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(text, "2.500000");
}

struct CountsDestruction
{
    int* count;
    ~CountsDestruction() { ++*count; }
};

[[gnu::noinline]] void
yieldThenThrow(int* destroyed)
{
    CountsDestruction guard{destroyed};
    Fiber::current()->yield();
    throw std::runtime_error("thrown after a yield");
}

TEST(Fiber, ExceptionAfterYieldUnwindsInsideTheFiber)
{
    int destroyed = 0;
    std::string caught;
    Fiber f([&] {
        try {
            yieldThenThrow(&destroyed);
        } catch (const std::runtime_error& e) {
            caught = e.what();
        }
    });
    f.resume();
    EXPECT_TRUE(caught.empty());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(caught, "thrown after a yield");
    EXPECT_EQ(destroyed, 1);
}

TEST(Fiber, DestroyedWhileSuspendedRunsNoMoreOfItsBody)
{
    // An owner may drop a fiber that never finished: its stack is
    // freed and its body never resumes.
    int steps = 0;
    auto f = std::make_unique<Fiber>([&] {
        ++steps;
        Fiber::current()->yield();
        ++steps;
    });
    f->resume();
    ASSERT_FALSE(f->finished());
    f.reset();
    EXPECT_EQ(steps, 1);
    EXPECT_EQ(Fiber::current(), nullptr);

    Fiber g([&] { steps = 10; });
    g.resume();
    EXPECT_TRUE(g.finished());
    EXPECT_EQ(steps, 10);
}

/** @p n fibers with small stacks that are never run. */
std::vector<std::unique_ptr<Fiber>>
idleFibers(int n)
{
    std::vector<std::unique_ptr<Fiber>> fs;
    for (int i = 0; i < n; ++i)
        fs.push_back(std::make_unique<Fiber>([] {}, 16 * 1024));
    return fs;
}

TEST(FiberQueue, PopsInPushOrderAcrossManyWaiters)
{
    // More waiters than one 512-byte deque node holds (64 pointers).
    auto fs = idleFibers(100);
    FiberQueue q;
    EXPECT_TRUE(q.empty());
    for (auto& f : fs)
        q.push(f.get());
    for (auto& f : fs) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.pop(), f.get());
    }
    EXPECT_TRUE(q.empty());

    // A popped fiber may wait again, on this queue or another, and
    // interleaved pushes and pops stay in order.
    FiberQueue other;
    other.push(fs[3].get());
    q.push(fs[7].get());
    q.push(fs[5].get());
    EXPECT_EQ(q.pop(), fs[7].get());
    q.push(fs[9].get());
    EXPECT_EQ(q.pop(), fs[5].get());
    EXPECT_EQ(q.pop(), fs[9].get());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(other.pop(), fs[3].get());
}

TEST(FiberQueueDeath, PushingAQueuedFiberPanics)
{
    auto fs = idleFibers(2);
    FiberQueue a, b;
    a.push(fs[0].get());
    a.push(fs[1].get());
    EXPECT_DEATH(a.push(fs[0].get()), "already waiting on a queue");
    EXPECT_DEATH(b.push(fs[1].get()), "already waiting on a queue");
    EXPECT_DEATH(b.pop(), "pop of an empty fiber queue");
}

} // namespace
} // namespace ap::sim
