#include <sstream>

#include <gtest/gtest.h>

#include "util/stats.hh"

namespace ap {
namespace {

TEST(Stats, CountersAccumulate)
{
    StatGroup s;
    EXPECT_EQ(s.counter("x"), 0u);
    s.inc("x");
    s.inc("x", 9);
    EXPECT_EQ(s.counter("x"), 10u);
}

TEST(Stats, ScalarsSetAndMax)
{
    StatGroup s;
    s.set("a", 3.5);
    EXPECT_DOUBLE_EQ(s.scalar("a"), 3.5);
    s.setMax("a", 2.0);
    EXPECT_DOUBLE_EQ(s.scalar("a"), 3.5);
    s.setMax("a", 7.0);
    EXPECT_DOUBLE_EQ(s.scalar("a"), 7.0);
}

TEST(Stats, ResetClearsEverything)
{
    StatGroup s;
    s.inc("c", 5);
    s.set("v", 1.0);
    s.reset();
    EXPECT_EQ(s.counter("c"), 0u);
    EXPECT_DOUBLE_EQ(s.scalar("v"), 0.0);
}

TEST(Stats, DumpIsSorted)
{
    StatGroup s;
    s.inc("b");
    s.inc("a");
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "a 1\nb 1\n");
}

TEST(Stats, CounterHandleDumpsLikeInc)
{
    StatGroup byName;
    StatGroup byHandle;
    StatGroup::Counter bytes(byHandle, "sim.dram_read_bytes");
    StatGroup::Counter instr(byHandle, "sim.instructions");
    byName.inc("a.cold");
    byHandle.inc("a.cold");
    for (uint64_t i = 0; i < 5; ++i) {
        byName.inc("sim.instructions", i);
        instr.inc(i);
        byName.inc("sim.dram_read_bytes", 128);
        bytes.inc(128);
    }
    // A zero charge still creates the counter, as inc() does.
    byName.inc("z.zero", 0);
    StatGroup::Counter zero(byHandle, "z.zero");
    zero.inc(0);
    std::ostringstream a, b, ja, jb;
    byName.dump(a);
    byHandle.dump(b);
    byName.dumpJson(ja);
    byHandle.dumpJson(jb);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(ja.str(), jb.str());
    EXPECT_EQ(byHandle.counter("sim.instructions"), 10u);
}

TEST(Stats, UnchargedCounterHandleAddsNoEntry)
{
    StatGroup s;
    StatGroup::Counter never(s, "never.charged");
    s.inc("x");
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "x 1\n");
}

TEST(Stats, CounterHandleSurvivesReset)
{
    StatGroup s;
    StatGroup::Counter c(s, "c");
    c.inc(5);
    s.reset();
    // The old slot is freed; the handle resolves a fresh one and the
    // old value does not come back.
    EXPECT_EQ(s.counter("c"), 0u);
    c.inc(2);
    EXPECT_EQ(s.counter("c"), 2u);
    s.reset();
    s.inc("c", 7); // the name re-created behind the handle's back
    c.inc(1);
    EXPECT_EQ(s.counter("c"), 8u);
    s.reset();
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "");
}

} // namespace
} // namespace ap
