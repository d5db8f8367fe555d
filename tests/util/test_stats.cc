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

TEST(Stats, HistHandleDumpsLikeRecordValue)
{
    StatGroup byName;
    StatGroup byHandle;
    StatGroup::Hist lookup(byHandle, "faultpath.minor.lookup");
    StatGroup::Hist total(byHandle, "faultpath.minor.total");
    byName.recordValue("a.cold", 3);
    byHandle.recordValue("a.cold", 3);
    for (int i = 0; i < 7; ++i) {
        byName.recordValue("faultpath.minor.lookup", 10.0 * i);
        lookup.record(10.0 * i);
        byName.recordValue("faultpath.minor.total", 1000.0 + i);
        total.record(1000.0 + i);
    }
    std::ostringstream a, b, ja, jb;
    byName.dump(a);
    byHandle.dump(b);
    byName.dumpJson(ja);
    byHandle.dumpJson(jb);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(ja.str(), jb.str());
    ASSERT_NE(byHandle.findHistogram("faultpath.minor.lookup"), nullptr);
    EXPECT_EQ(byHandle.findHistogram("faultpath.minor.lookup")->count(), 7u);
}

TEST(Stats, UnchargedHistHandleAddsNoEntry)
{
    StatGroup s;
    StatGroup::Hist never(s, "never.recorded");
    s.inc("x");
    EXPECT_EQ(s.findHistogram("never.recorded"), nullptr);
    EXPECT_TRUE(s.allHistograms().empty());
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "x 1\n");
}

TEST(Stats, HistHandleSurvivesReset)
{
    StatGroup s;
    StatGroup::Hist h(s, "h");
    h.record(5);
    s.reset();
    // The old histogram is freed; the handle resolves a fresh one and
    // the old sample does not come back.
    EXPECT_EQ(s.findHistogram("h"), nullptr);
    h.record(2);
    ASSERT_NE(s.findHistogram("h"), nullptr);
    EXPECT_EQ(s.findHistogram("h")->count(), 1u);
    EXPECT_EQ(s.findHistogram("h")->sum(), 2.0);
    s.reset();
    s.recordValue("h", 7); // the name re-created behind the handle's back
    h.record(1);
    EXPECT_EQ(s.findHistogram("h")->count(), 2u);
    EXPECT_EQ(s.findHistogram("h")->sum(), 8.0);
    s.reset();
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "");
}

TEST(Stats, PeakHandleMatchesSetMax)
{
    StatGroup byName;
    StatGroup byHandle;
    StatGroup::Peak peak(byHandle, "contig.max_run");
    for (double v : {3.0, 1.0, 7.0, 7.0, 2.0}) {
        byName.setMax("contig.max_run", v);
        peak.setMax(v);
    }
    EXPECT_DOUBLE_EQ(byHandle.scalar("contig.max_run"), 7.0);
    // A first charge below zero creates the scalar at that value, as
    // setMax by name does; a value set by name is kept if larger.
    StatGroup::Peak neg(byHandle, "neg");
    byName.setMax("neg", -4.0);
    neg.setMax(-4.0);
    byName.set("kept", 9.0);
    byHandle.set("kept", 9.0);
    StatGroup::Peak kept(byHandle, "kept");
    byName.setMax("kept", 5.0);
    kept.setMax(5.0);
    std::ostringstream ja, jb;
    byName.dumpJson(ja);
    byHandle.dumpJson(jb);
    EXPECT_EQ(ja.str(), jb.str());
    // Reset frees the slot; the next charge starts a fresh maximum.
    byHandle.reset();
    peak.setMax(2.0);
    EXPECT_DOUBLE_EQ(byHandle.scalar("contig.max_run"), 2.0);
}

TEST(Stats, HandlesBindsOneHandlePerName)
{
    StatGroup s;
    const std::array<std::string, 3> names{"t.a", "t.b", "t.c"};
    auto counters = s.handles<StatGroup::Counter>(names);
    counters[0].inc(1);
    counters[2].inc(3);
    EXPECT_EQ(s.counter("t.a"), 1u);
    EXPECT_EQ(s.counter("t.b"), 0u);
    EXPECT_EQ(s.counter("t.c"), 3u);
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "t.a 1\nt.c 3\n");
}

} // namespace
} // namespace ap
