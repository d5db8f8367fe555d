// aplint: allow-file(leader-only) single-warp test harness: the launched warp is the
// leader by construction, driving the TLB/page-cache APIs without an election.

/**
 * @file
 * Translation-telemetry tests (docs/OBSERVABILITY.md "Translation
 * telemetry"): every TLB eviction-reason class is driven by a scripted
 * deterministic pattern and checked for exact counter values —
 * dead-on-arrival classification, entry lifetime and reuse-distance
 * histogram population, page-cache frame-lifetime accounting, and the
 * simcheck cross-check that per-entry hit counts sum to the TLB's hit
 * counter.
 */

#include <gtest/gtest.h>

#include "../core/fixture.hh"
#include "sim/check/simcheck.hh"
#include "tenant/tenant.hh"

namespace ap::core {
namespace {

GvmConfig
tlbConfig(uint32_t entries = 32)
{
    GvmConfig g;
    g.useTlb = true;
    g.tlbEntries = entries;
    return g;
}

TEST(TlbTelemetry, InvalidationRetireRecordsHitsAndReuseDistance)
{
    StackFixture fx(tlbConfig());
    hostio::FileId f = fx.makeWordFile("f", 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        auto p = gvmmap<uint32_t>(w, *fx.rt, 4 * 4096, hostio::O_GRDONLY,
                                  f, 0);
        p.read(w); // miss: installs the page-0 entry
        auto q = p.copyUnlinked(w);
        q.read(w); // one TLB hit on the installed entry
        q.destroy(w);
        p.destroy(w); // count reaches zero: Invalidation retire
    });
    const StatGroup& s = fx.dev->stats();
    EXPECT_EQ(s.counter("tlb.inserts"), 1u);
    EXPECT_EQ(s.counter("tlb.evict.invalidation"), 1u);
    EXPECT_EQ(s.counter("tlb.evict.conflict"), 0u);
    EXPECT_EQ(s.counter("tlb.evict.teardown"), 0u);
    // The entry absorbed one hit, so it is not dead-on-arrival and its
    // hit count lands in the retired-hits counter.
    EXPECT_EQ(s.counter("tlb.doa.invalidation"), 0u);
    EXPECT_EQ(s.counter("tlb.entry_hits_retired"), 1u);
    const Histogram* life = s.findHistogram("tlb.entry_lifetime");
    ASSERT_NE(life, nullptr);
    EXPECT_EQ(life->count(), 1u);
    EXPECT_GT(life->min(), 0.0);
    const Histogram* reuse = s.findHistogram("tlb.reuse_distance");
    ASSERT_NE(reuse, nullptr);
    EXPECT_EQ(reuse->count(), 1u);
    EXPECT_GE(reuse->min(), 0.0);
}

TEST(TlbTelemetry, ZeroHitEntryIsDeadOnArrival)
{
    StackFixture fx(tlbConfig());
    hostio::FileId f = fx.makeWordFile("f", 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        auto p = gvmmap<uint32_t>(w, *fx.rt, 4 * 4096, hostio::O_GRDONLY,
                                  f, 0);
        p.read(w);    // install
        p.destroy(w); // retire with zero hits
    });
    const StatGroup& s = fx.dev->stats();
    EXPECT_EQ(s.counter("tlb.evict.invalidation"), 1u);
    EXPECT_EQ(s.counter("tlb.doa.invalidation"), 1u);
    EXPECT_EQ(s.counter("tlb.entry_hits_retired"), 0u);
    // No hit ever happened, so no reuse distance was sampled.
    const Histogram* reuse = s.findHistogram("tlb.reuse_distance");
    EXPECT_TRUE(reuse == nullptr || reuse->count() == 0u);
}

TEST(TlbTelemetry, ConflictRetiresCountZeroVictim)
{
    // Scripted single-slot TLB: zero the victim's count through the
    // proactive-decrement path (lookupAndRef with n = -1 leaves the
    // mapping cached), then install a conflicting page over it.
    StackFixture fx(tlbConfig(/*entries=*/1));
    hostio::FileId f = fx.makeWordFile("f", 2 * 1024);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        gpufs::PageCache& cache = fx.fs->cache();
        SoftTlb* tlb = fx.rt->tlbFor(w);
        ASSERT_NE(tlb, nullptr);
        gpufs::PageKey k0 = gpufs::makePageKey(f, 0);
        gpufs::PageKey k1 = gpufs::makePageKey(f, 1);

        gpufs::AcquireResult r0 = cache.acquirePage(w, k0, 1, false);
        ASSERT_TRUE(r0.ok());
        ASSERT_TRUE(tlb->insertAfterAcquire(w, k0, r0.frameAddr, 1,
                                            cache));
        sim::Addr fa = 0;
        ASSERT_TRUE(tlb->lookupAndRef(w, k0, -1, fa)); // count -> 0
        EXPECT_EQ(tlb->countOfHost(k0), 0);

        gpufs::AcquireResult r1 = cache.acquirePage(w, k1, 1, false);
        ASSERT_TRUE(r1.ok());
        // Conflict: the count-zero k0 entry is retired (returning its
        // page-table reference) and k1 takes the slot.
        ASSERT_TRUE(tlb->insertAfterAcquire(w, k1, r1.frameAddr, 1,
                                            cache));
        ASSERT_TRUE(tlb->unref(w, k1, 1, cache));
    });
    const StatGroup& s = fx.dev->stats();
    EXPECT_EQ(s.counter("tlb.evict.conflict"), 1u);
    // The victim had one hit (the decrementing lookup), so it is not
    // dead-on-arrival; k1 never hit, so its Invalidation retire is.
    EXPECT_EQ(s.counter("tlb.doa.conflict"), 0u);
    EXPECT_EQ(s.counter("tlb.evict.invalidation"), 1u);
    EXPECT_EQ(s.counter("tlb.doa.invalidation"), 1u);
    EXPECT_EQ(s.counter("core.tlb_evictions"), 1u);
    // Every reference went back to the page cache.
    EXPECT_EQ(fx.fs->cache().residentRefcountHost(
                  gpufs::makePageKey(f, 0)),
              0);
    EXPECT_EQ(fx.fs->cache().residentRefcountHost(
                  gpufs::makePageKey(f, 1)),
              0);
}

TEST(TlbTelemetry, LiveEntryAtLaunchEndRetiresAsTeardown)
{
    StackFixture fx(tlbConfig());
    hostio::FileId f = fx.makeWordFile("f", 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        gpufs::PageCache& cache = fx.fs->cache();
        SoftTlb* tlb = fx.rt->tlbFor(w);
        ASSERT_NE(tlb, nullptr);
        gpufs::PageKey k0 = gpufs::makePageKey(f, 0);
        gpufs::AcquireResult r0 = cache.acquirePage(w, k0, 1, false);
        ASSERT_TRUE(r0.ok());
        ASSERT_TRUE(tlb->insertAfterAcquire(w, k0, r0.frameAddr, 1,
                                            cache));
        // Entry left live: the TLB dies with the launch and must
        // charge the retirement to Teardown.
    });
    const StatGroup& s = fx.dev->stats();
    EXPECT_EQ(s.counter("tlb.evict.teardown"), 1u);
    EXPECT_EQ(s.counter("tlb.doa.teardown"), 1u);
    const Histogram* life = s.findHistogram("tlb.entry_lifetime");
    ASSERT_NE(life, nullptr);
    EXPECT_EQ(life->count(), 1u);
    // The deliberately-leaked reference is still visible: teardown
    // telemetry only observes, it does not release.
    EXPECT_EQ(fx.fs->cache().residentRefcountHost(
                  gpufs::makePageKey(f, 0)),
              1);
}

TEST(TlbTelemetry, ReuseDistanceMeasuresGapBetweenHits)
{
    StackFixture fx(tlbConfig());
    hostio::FileId f = fx.makeWordFile("f", 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        auto p = gvmmap<uint32_t>(w, *fx.rt, 4 * 4096, hostio::O_GRDONLY,
                                  f, 0);
        p.read(w); // install
        for (int i = 0; i < 3; ++i) {
            // A long idle gap between hits: kernels pace via warp
            // stalls (launch latency makes absolute waits fragile).
            w.stall(1000);
            auto q = p.copyUnlinked(w);
            q.read(w);
            q.destroy(w);
        }
        p.destroy(w);
    });
    const Histogram* reuse =
        fx.dev->stats().findHistogram("tlb.reuse_distance");
    ASSERT_NE(reuse, nullptr);
    EXPECT_EQ(reuse->count(), 3u);
    // Each hit was preceded by a 1000-cycle stall, so every sampled
    // distance must be at least that.
    EXPECT_GE(reuse->min(), 1000.0);
}

// ---------------------------------------------------------------------
// simcheck cross-check: per-entry hit counts vs. the TLB hit counter
// ---------------------------------------------------------------------

class TlbHitSumAudit : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::check::SimCheck& sc = sim::check::SimCheck::get();
        sc.reset();
        sc.setEnabled(true);
        sc.setFailOnReport(false);
    }

    void
    TearDown() override
    {
        sim::check::SimCheck& sc = sim::check::SimCheck::get();
        sc.setEnabled(false);
        sc.reset();
    }
};

TEST_F(TlbHitSumAudit, CleanWorkloadPassesAudit)
{
    StackFixture fx(tlbConfig());
    hostio::FileId f = fx.makeWordFile("f", 8192);
    fx.dev->launch(1, 4, [&](sim::Warp& w) {
        auto p = gvmmap<uint32_t>(w, *fx.rt, 8 * 4096, hostio::O_GRDONLY,
                                  f, 0);
        for (int i = 0; i < 4; ++i) {
            auto q = p.copyUnlinked(w);
            q.read(w);
            q.destroy(w);
        }
        p.destroy(w);
    });
    // The TLB destructors ran at launch end and audited themselves.
    EXPECT_GT(fx.dev->stats().counter("core.tlb_hits"), 0u);
    EXPECT_FALSE(sim::check::SimCheck::get().hasReport(
        sim::check::ReportKind::Invariant, "hit-sum mismatch"));
}

TEST_F(TlbHitSumAudit, MismatchedSumsAreReported)
{
    sim::check::SimCheck::get().tlbHitSumAudit(3, 5, "tlb[test]");
    sim::check::SimCheck& sc = sim::check::SimCheck::get();
    EXPECT_GE(sc.count(sim::check::ReportKind::Invariant), 1u);
    EXPECT_TRUE(sc.hasReport(sim::check::ReportKind::Invariant,
                             "hit-sum mismatch"));
    EXPECT_TRUE(sc.hasReport(sim::check::ReportKind::Invariant,
                             "tlb[test]"));
}

TEST_F(TlbHitSumAudit, EqualSumsStaySilent)
{
    sim::check::SimCheck::get().tlbHitSumAudit(7, 7, "tlb[test]");
    EXPECT_EQ(
        sim::check::SimCheck::get().count(
            sim::check::ReportKind::Invariant),
        0u);
}

// ---------------------------------------------------------------------
// Page-cache frame-lifetime telemetry
// ---------------------------------------------------------------------

TEST(PageCacheTelemetry, ClockSweepEvictionClassifiedAndNotDoa)
{
    // 4 frames, 5 pages touched-and-released in order: the fifth
    // acquire must clock-sweep exactly one resident frame, and that
    // frame saw a demand hit, so it is not dead-on-arrival.
    StackFixture fx(GvmConfig{}, /*frames=*/4);
    hostio::FileId f = fx.makeWordFile("f", 8 * 1024);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        gpufs::PageCache& cache = fx.fs->cache();
        for (uint64_t pg = 0; pg < 5; ++pg) {
            gpufs::AcquireResult r =
                cache.acquirePage(w, gpufs::makePageKey(f, pg), 1,
                                  false);
            ASSERT_TRUE(r.ok());
            cache.releasePage(w, gpufs::makePageKey(f, pg), 1);
        }
    });
    const StatGroup& s = fx.dev->stats();
    EXPECT_EQ(s.counter("pagecache.life.fills"), 5u);
    EXPECT_EQ(s.counter("pagecache.evict.clock_sweep"), 1u);
    EXPECT_EQ(s.counter("pagecache.doa.clock_sweep"), 0u);
    const Histogram* life =
        s.findHistogram("pagecache.life.lifetime");
    ASSERT_NE(life, nullptr);
    EXPECT_EQ(life->count(), 1u);
    // Every filled frame was demand-hit by its faulting warp.
    const Histogram* first =
        s.findHistogram("pagecache.life.fill_to_first_hit");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->count(), 5u);
    const Histogram* hits =
        s.findHistogram("pagecache.life.demand_hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->count(), 1u);
    EXPECT_EQ(hits->min(), 1.0);
}

TEST(PageCacheTelemetry, TenantTeardownDoaAndContiguitySnapshot)
{
    StackFixture fx;
    hostio::FileId f = fx.makeWordFile("f", 4 * 1024);
    tenant::TenantRegistry reg;
    tenant::RegisterResult t1 = reg.registerTenant({"t", 1, 1});
    ASSERT_TRUE(t1.ok());
    fx.fs->cache().setTenantRegistry(&reg);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(t1.id);
        gpufs::PageCache& cache = fx.fs->cache();
        // Page 0: demand-faulted (its acquire is the first demand
        // touch). Page 1: advisory prefetch only, never touched.
        gpufs::PageKey k0 = gpufs::makePageKey(t1.id, f, 0);
        gpufs::AcquireResult r = cache.acquirePage(w, k0, 1, false);
        ASSERT_TRUE(r.ok());
        cache.releasePage(w, k0, 1);
        EXPECT_EQ(cache.prefetchPage(
                      w, gpufs::makePageKey(t1.id, f, 1)),
                  gpufs::PrefetchResult::Started);
        w.stall(50000); // let the asynchronous fill land
    });
    const StatGroup& s = fx.dev->stats();
    EXPECT_EQ(s.counter("tenant.t1.major_faults"), 1u);

    // Snapshot contiguity while both pages are resident: one run of
    // two pages in the (t1, f) group.
    fx.fs->cache().exportTranslationStatsHost();
    const Histogram* runs = s.findHistogram("contig.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->count(), 1u);
    EXPECT_EQ(runs->max(), 2.0);
    EXPECT_EQ(s.scalar("contig.resident_pages"), 2.0);

    // Teardown unbinds both frames; the prefetched one never saw a
    // demand hit, so it is the only dead-on-arrival frame.
    ASSERT_EQ(fx.fs->cache().teardownTenantHost(t1.id),
              tenant::TenantStatus::Ok);
    ASSERT_EQ(reg.releaseTenant(t1.id), tenant::TenantStatus::Ok);
    fx.fs->cache().setTenantRegistry(nullptr);
    EXPECT_EQ(s.counter("pagecache.evict.teardown"), 2u);
    EXPECT_EQ(s.counter("pagecache.doa.teardown"), 1u);
    const Histogram* hits =
        s.findHistogram("pagecache.life.demand_hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->count(), 2u);
    EXPECT_EQ(hits->min(), 0.0);
    EXPECT_EQ(hits->max(), 1.0);

    // A fresh snapshot after teardown drops the stale run histograms.
    fx.fs->cache().exportTranslationStatsHost();
    runs = s.findHistogram("contig.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->count(), 0u);
    EXPECT_EQ(s.scalar("contig.resident_pages"), 0.0);
}

} // namespace
} // namespace ap::core
