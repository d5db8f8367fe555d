/**
 * @file
 * Negative tests for the simcheck analyses: each test injects one
 * defect into otherwise-working simulator code and asserts that the
 * checker reports it with a diagnostic naming the racing addresses,
 * the lock cycle, or the leaked page. A positive control verifies
 * that properly synchronized code stays report-free.
 */

#include <gtest/gtest.h>

#include "gpufs/page_cache.hh"
#include "sim/check/simcheck.hh"
#include "sim/device.hh"
#include "sim/sync.hh"

namespace ap::sim::check {
namespace {

/**
 * Arms the checker in report-collection mode: reports are recorded and
 * inspected instead of panicking, which is what the AP_SIMCHECK suite
 * runs do.
 */
class SimCheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SimCheck& sc = SimCheck::get();
        sc.reset();
        sc.setEnabled(true);
        sc.setFailOnReport(false);
    }

    void
    TearDown() override
    {
        SimCheck& sc = SimCheck::get();
        sc.setEnabled(false);
        sc.reset();
    }
};

TEST_F(SimCheckTest, DetectsUnsynchronizedWritePair)
{
    Device dev(CostModel{}, 1 << 20);
    const Addr addr = 0x2000;
    dev.launch(1, 2, [&](Warp& w) {
        // No lock, no barrier, no atomic: both warps' stores to the
        // same word are unordered in the happens-before graph.
        w.stall(10 + 5 * w.warpInBlock());
        w.mem().store<uint64_t>(addr, 0x1111u * (w.warpInBlock() + 1));
    });

    SimCheck& sc = SimCheck::get();
    EXPECT_GE(sc.count(ReportKind::DataRace), 1u);
    EXPECT_TRUE(sc.hasReport(ReportKind::DataRace, "0x2000"));
    EXPECT_TRUE(sc.hasReport(ReportKind::DataRace,
                             "no happens-before edge"));
}

TEST_F(SimCheckTest, LockedWritesProduceNoReports)
{
    Device dev(CostModel{}, 1 << 20);
    DeviceLock lock{"test.counter"};
    const Addr addr = 0x2000;
    dev.launch(2, 4, [&](Warp& w) {
        lock.acquire(w);
        uint64_t v = w.mem().load<uint64_t>(addr);
        w.stall(50); // widen the critical section across yields
        w.mem().store<uint64_t>(addr, v + 1);
        lock.release(w);
    });

    SimCheck& sc = SimCheck::get();
    EXPECT_EQ(sc.count(ReportKind::DataRace), 0u);
    EXPECT_EQ(sc.reports().size(), 0u);
}

TEST_F(SimCheckTest, DetectsLockOrderInversion)
{
    Device dev(CostModel{}, 1 << 20);
    DeviceLock a{"lock.A"}, b{"lock.B"};
    // Warp 0 nests A -> B; warp 1 (staggered far enough that the
    // simulation itself never deadlocks) nests B -> A. The second
    // nesting closes an A/B cycle in the lock-order graph.
    dev.launch(1, 2, [&](Warp& w) {
        if (w.warpInBlock() == 0) {
            a.acquire(w);
            w.stall(50);
            b.acquire(w);
            b.release(w);
            a.release(w);
        } else {
            w.stall(5000);
            b.acquire(w);
            w.stall(50);
            a.acquire(w);
            a.release(w);
            b.release(w);
        }
    });

    SimCheck& sc = SimCheck::get();
    EXPECT_GE(sc.count(ReportKind::LockCycle), 1u);
    EXPECT_TRUE(sc.hasReport(ReportKind::LockCycle, "lock.A"));
    EXPECT_TRUE(sc.hasReport(ReportKind::LockCycle, "lock.B"));
    EXPECT_TRUE(sc.hasReport(ReportKind::LockCycle, "closing edge"));
}

TEST_F(SimCheckTest, ReportsLeakedPageReference)
{
    gpufs::Config cfg;
    cfg.numFrames = 16;
    hostio::BackingStore bs;
    Device dev(CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    gpufs::PageCache cache(dev, io, cfg);
    hostio::FileId f = bs.create("leaky", 16 * gpufs::kPageBytes);

    gpufs::PageKey key = gpufs::makePageKey(f, 3);
    dev.launch(1, 1, [&](Warp& w) {
        // Injected defect: take 3 references and never release them.
        // aplint: allow(leader-only) lone test warp is the leader by construction
        cache.acquirePage(w, key, 3, false);
    });

    SimCheck& sc = SimCheck::get();
    EXPECT_EQ(sc.reports().size(), 0u); // leak is invisible until audit
    sc.auditLeaks();
    EXPECT_GE(sc.count(ReportKind::Invariant), 1u);
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant,
                             "leaked page reference"));
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant, "pageno=3"));
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant, "refcount 3"));
}

TEST_F(SimCheckTest, ReportsRefcountUnderflow)
{
    SimCheck& sc = SimCheck::get();
    const uint64_t dom = SimCheck::nextId();
    const uint64_t key = (7ULL << 40) | 9; // file 7, page 9
    sc.pcInsert(dom, key, 1, 0, 0.0);
    sc.pcReady(dom, key, 0, 0.0);
    sc.pcRefAdjust(dom, key, -2, 0, 0.0); // releases more than held
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant,
                             "below zero outside the claimed -1 state"));
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant, "pageno=9"));
}

TEST_F(SimCheckTest, ReportsEvictionOfReferencedPage)
{
    SimCheck& sc = SimCheck::get();
    const uint64_t dom = SimCheck::nextId();
    const uint64_t key = (2ULL << 40) | 4;
    sc.pcInsert(dom, key, 2, 1, 0.0);
    sc.pcReady(dom, key, 1, 0.0);
    sc.pcClaim(dom, key, 1, 10.0); // claim while refcount is 2
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant,
                             "must be 0 and Ready"));
}

TEST_F(SimCheckTest, ReportsEvictionOfLinkedPage)
{
    SimCheck& sc = SimCheck::get();
    const uint64_t dom = SimCheck::nextId();
    const uint64_t key = (5ULL << 40) | 11;
    sc.pcInsert(dom, key, 0, 2, 0.0);
    sc.pcReady(dom, key, 2, 0.0);
    sc.pcLink(dom, key, 4, 2, 0.0);
    sc.pcClaim(dom, key, 3, 20.0);
    sc.pcRemove(dom, key, 3, 21.0); // 4 lanes still hold translations
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant,
                             "linked apointer lane(s)"));
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant, "pageno=11"));
}

TEST_F(SimCheckTest, ReportsIllegalPteStateEdge)
{
    SimCheck& sc = SimCheck::get();
    const uint64_t dom = SimCheck::nextId();
    const uint64_t key = (1ULL << 40) | 6;
    sc.pcInsert(dom, key, 0, 0, 0.0);
    sc.pcReady(dom, key, 0, 0.0);
    sc.pcReady(dom, key, 0, 1.0); // Ready -> Ready is not a legal edge
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant,
                             "illegal PteState edge"));
}

TEST_F(SimCheckTest, FillErrorEdgeAndErrorClaimAreLegal)
{
    // Loading -> Error (failed fill) and a later claim of the Error
    // entry (poisoned-page reclaim) are both legal shadow transitions.
    SimCheck& sc = SimCheck::get();
    const uint64_t dom = SimCheck::nextId();
    const uint64_t key = (3ULL << 40) | 8;
    sc.pcInsert(dom, key, 1, 0, 0.0);
    sc.pcFillError(dom, key, 0, 1.0);
    sc.pcRefAdjust(dom, key, -1, 0, 1.0); // publisher drains its refs
    sc.pcClaim(dom, key, 1, 2.0);
    sc.pcRemove(dom, key, 1, 3.0);
    EXPECT_EQ(sc.reports().size(), 0u);
}

TEST_F(SimCheckTest, ReportsFillErrorOfUntrackedPage)
{
    SimCheck& sc = SimCheck::get();
    const uint64_t dom = SimCheck::nextId();
    sc.pcFillError(dom, (9ULL << 40) | 2, 0, 0.0);
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant,
                             "Error transition of untracked"));
}

TEST_F(SimCheckTest, ReportsErrorEdgeFromReady)
{
    // Only a Loading entry may be poisoned: a fill error on a page
    // that already published Ready means the error raced the fill.
    SimCheck& sc = SimCheck::get();
    const uint64_t dom = SimCheck::nextId();
    const uint64_t key = (4ULL << 40) | 13;
    sc.pcInsert(dom, key, 0, 0, 0.0);
    sc.pcReady(dom, key, 0, 1.0);
    sc.pcFillError(dom, key, 0, 2.0);
    EXPECT_TRUE(sc.hasReport(ReportKind::Invariant,
                             "illegal PteState edge to Error"));
}

TEST_F(SimCheckTest, HangAuditorNamesThePermanentlyBlockedWarp)
{
    // A warp that blocks with no resumer drains the event queue while
    // still waiting: the auditor must name it before the simulator
    // aborts, so a wedged fault path is diagnosed as a hang rather
    // than a bare deadlock assert.
    EXPECT_DEATH(
        {
            Device dev(CostModel{}, 1 << 20);
            dev.launch(1, 2, [&](Warp& w) {
                if (w.warpInBlock() == 1)
                    w.engine().block(); // nobody will resume us
            });
        },
        "permanently blocked");
}

TEST_F(SimCheckTest, FailedFillLeavesNoReportsWhenArmed)
{
    // Positive control for the failure path itself: a terminally
    // failing fill, its waiter drain, and the later poisoned-page
    // reclaim run clean under the armed checker.
    gpufs::Config cfg;
    cfg.numFrames = 16;
    hostio::BackingStore bs;
    Device dev(CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    hostio::FaultInjector fi;
    io.setFaultInjector(&fi);
    gpufs::PageCache cache(dev, io, cfg);
    hostio::FileId f = bs.create("flaky", 16 * gpufs::kPageBytes);
    fi.failReads(f, 0, gpufs::kPageBytes);

    gpufs::PageKey key = gpufs::makePageKey(f, 0);
    dev.launch(1, 2, [&](Warp& w) {
        // aplint: allow(leader-only) every warp faults independently here
        EXPECT_FALSE(cache.acquirePage(w, key, 1, false).ok());
    });
    fi.clearPersistent();
    dev.launch(1, 1, [&](Warp& w) {
        // aplint: allow(leader-only) lone test warp is the leader by construction
        EXPECT_TRUE(cache.acquirePage(w, key, 1, false).ok());
        // aplint: allow(leader-only) lone test warp is the leader by construction
        cache.releasePage(w, key, 1);
    });

    SimCheck& sc = SimCheck::get();
    EXPECT_EQ(sc.reports().size(), 0u);
    sc.auditLeaks();
    EXPECT_EQ(sc.reports().size(), 0u);
}

TEST_F(SimCheckTest, BarrierOrdersBlockmates)
{
    Device dev(CostModel{}, 1 << 20);
    const Addr addr = 0x3000;
    dev.launch(1, 2, [&](Warp& w) {
        if (w.warpInBlock() == 0)
            w.mem().store<uint64_t>(addr, 42);
        w.syncThreads();
        if (w.warpInBlock() == 1) {
            uint64_t v = w.mem().load<uint64_t>(addr);
            EXPECT_EQ(v, 42u);
        }
    });

    SimCheck& sc = SimCheck::get();
    EXPECT_EQ(sc.count(ReportKind::DataRace), 0u);
}

} // namespace
} // namespace ap::sim::check
