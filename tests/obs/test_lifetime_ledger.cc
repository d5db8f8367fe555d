/**
 * @file
 * Unit tests of sim::LifetimeLedger, the per-slot lifetime record and
 * dead-on-arrival taxonomy the TLB and the page cache share: what a
 * retirement counts (and that a slot that is not live counts
 * nothing), what hit() hands back, and the trace-sample throttle.
 */

#include <gtest/gtest.h>

#include "sim/lifetime_ledger.hh"

namespace ap::sim {
namespace {

enum class Why : uint8_t
{
    Evicted = 0,
    Dropped = 1,
};

using Ledger = LifetimeLedger<Why, 2>;

/** A ledger of @p slots slots charging into @p st through its own Stats. */
struct Bound
{
    explicit Bound(StatGroup& st, size_t slots = 4)
        : stats(st, "t", {"evicted", "dropped"}, "t.opens", "t.lifetime"),
          ledger(stats, slots)
    {
    }

    Ledger::Stats stats;
    Ledger ledger;
};

TEST(LifetimeLedger, RetiringASlotThatIsNotLiveCountsNothing)
{
    StatGroup st;
    Bound b(st);
    Ledger& l = b.ledger;
    auto rec = l.retire(1, Why::Evicted, 50);
    EXPECT_FALSE(rec.live);
    EXPECT_EQ(st.counter("t.evict.evicted"), 0u);
    EXPECT_EQ(st.counter("t.doa.evicted"), 0u);
    EXPECT_EQ(st.findHistogram("t.lifetime"), nullptr);
    EXPECT_EQ(l.live(), 0u);

    // A second retirement of an already-retired slot is a no-op too.
    l.open(1, 10);
    l.retire(1, Why::Evicted, 20);
    l.retire(1, Why::Dropped, 30);
    EXPECT_EQ(st.counter("t.evict.evicted"), 1u);
    EXPECT_EQ(st.counter("t.evict.dropped"), 0u);
    EXPECT_EQ(st.findHistogram("t.lifetime")->count(), 1u);
    EXPECT_EQ(l.live(), 0u);
}

TEST(LifetimeLedger, DeadOnArrivalOnlyForZeroHitRetirements)
{
    StatGroup st;
    Bound b(st);
    Ledger& l = b.ledger;
    l.open(0, 100);
    l.open(2, 100);
    EXPECT_EQ(st.counter("t.opens"), 2u);
    EXPECT_EQ(l.live(), 2u);
    l.hit(2, 130);
    l.hit(2, 170);

    auto dead = l.retire(0, Why::Dropped, 400);
    EXPECT_TRUE(dead.live);
    EXPECT_EQ(dead.hits, 0u);
    auto used = l.retire(2, Why::Dropped, 500);
    EXPECT_EQ(used.hits, 2u);
    EXPECT_EQ(used.openCycle, 100.0);

    EXPECT_EQ(st.counter("t.evict.dropped"), 2u);
    EXPECT_EQ(st.counter("t.doa.dropped"), 1u);
    EXPECT_EQ(st.counter("t.evict.evicted"), 0u);
    const Histogram* life = st.findHistogram("t.lifetime");
    ASSERT_NE(life, nullptr);
    EXPECT_EQ(life->count(), 2u);
    EXPECT_EQ(life->sum(), 300.0 + 400.0);
    EXPECT_EQ(l.retiredHits(), 2u);
    EXPECT_EQ(l.live(), 0u);
}

TEST(LifetimeLedger, HitReturnsTheRecordBeforeTheHit)
{
    StatGroup st;
    Bound b(st);
    Ledger& l = b.ledger;
    l.open(3, 40);
    auto first = l.hit(3, 65);
    EXPECT_TRUE(first.live);
    EXPECT_EQ(first.hits, 0u);
    EXPECT_EQ(first.openCycle, 40.0);
    EXPECT_EQ(first.lastHitCycle, 40.0); // no hit yet: the open cycle
    auto second = l.hit(3, 90);
    EXPECT_EQ(second.hits, 1u);
    EXPECT_EQ(second.lastHitCycle, 65.0);

    // A hit on a slot that is not live counts nothing.
    auto none = l.hit(1, 95);
    EXPECT_FALSE(none.live);
    EXPECT_EQ(l.hit(1, 99).hits, 0u);
}

TEST(LifetimeLedger, BoundLedgerCountsAfterReset)
{
    // A ledger is bound to its group at construction and outlives
    // StatGroup::reset() (apbench translate resets after its warm-up
    // launch): charges after the reset land in fresh entries, and
    // nothing charged before it comes back.
    StatGroup st;
    Bound b(st);
    Ledger& l = b.ledger;
    l.open(0, 10);
    l.open(1, 10);
    l.retire(0, Why::Evicted, 30);
    st.reset();
    EXPECT_EQ(st.counter("t.opens"), 0u);
    EXPECT_EQ(st.findHistogram("t.lifetime"), nullptr);

    l.hit(1, 40);
    l.retire(1, Why::Dropped, 50);
    l.open(2, 60);
    l.retire(2, Why::Dropped, 100);
    EXPECT_EQ(st.counter("t.opens"), 1u);
    EXPECT_EQ(st.counter("t.evict.dropped"), 2u);
    EXPECT_EQ(st.counter("t.doa.dropped"), 1u);
    EXPECT_EQ(st.counter("t.evict.evicted"), 0u);
    EXPECT_EQ(st.counter("t.doa.evicted"), 0u);
    const Histogram* life = st.findHistogram("t.lifetime");
    ASSERT_NE(life, nullptr);
    EXPECT_EQ(life->count(), 2u);
    EXPECT_EQ(life->sum(), 40.0 + 40.0);
    EXPECT_EQ(l.live(), 0u);
}

TEST(LifetimeLedger, LedgersSharingStatsChargeTheSameNames)
{
    // Every TLB of a runtime shares one Stats: each ledger keeps its
    // own records, and the charges add up in the shared names.
    StatGroup st;
    Ledger::Stats shared(st, "t", {"evicted", "dropped"}, "t.opens",
                         "t.lifetime");
    Ledger a(shared, 2);
    Ledger b(shared, 2);
    a.open(0, 10);
    b.open(0, 20);
    b.hit(0, 25);
    a.retire(0, Why::Evicted, 40);
    b.retire(0, Why::Evicted, 60);
    EXPECT_EQ(st.counter("t.opens"), 2u);
    EXPECT_EQ(st.counter("t.evict.evicted"), 2u);
    EXPECT_EQ(st.counter("t.doa.evicted"), 1u);
    EXPECT_EQ(st.findHistogram("t.lifetime")->count(), 2u);
    EXPECT_EQ(a.retiredHits(), 0u);
    EXPECT_EQ(b.retiredHits(), 1u);
    EXPECT_EQ(a.live() + b.live(), 0u);
}

TEST(LifetimeLedger, SampleThrottle)
{
    Tracer tr;
    StatGroup st;
    Bound b(st);
    Ledger& l = b.ledger;
    EXPECT_FALSE(l.sampleDue(tr, 1000)); // tracing off
    tr.enable();
    EXPECT_TRUE(l.sampleDue(tr, 1000)); // first sample
    EXPECT_FALSE(l.sampleDue(tr, 1000 + kCounterIntervalCycles - 1));
    EXPECT_TRUE(l.sampleDue(tr, 1000 + kCounterIntervalCycles));
}

} // namespace
} // namespace ap::sim
