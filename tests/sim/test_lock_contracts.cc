/**
 * @file
 * The lock hierarchy at run time. ap::kLockOrder is the one
 * declaration of the order: aplint's lock-order rule reads it at the
 * source level, and simcheck ranks every DeviceLock's class by it and
 * reports any nesting that inverts two ranked classes, on every armed
 * run. These tests pin the runtime side.
 */

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/vm.hh"
#include "sim/check/simcheck.hh"
#include "tenant/tenant.hh"
#include "util/annotations.hh"

namespace ap::sim::check {
namespace {

class LockContractTest : public ::testing::Test
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

TEST_F(LockContractTest, DeclaredOrderCoversAllLockClasses)
{
    // The four AP_LOCK_LEVEL classes of the simulator, outermost
    // first. aplint's lock-order rule flags any registered class the
    // table leaves out, so this pins the production set.
    const std::vector<std::string> order(std::begin(ap::kLockOrder),
                                         std::end(ap::kLockOrder));
    EXPECT_EQ(order, (std::vector<std::string>{"tlb.entry", "pt.bucket",
                                               "pc.alloc", "pc.reserve"}));
}

TEST_F(LockContractTest, NestedAcquisitionInDeclaredOrderIsObserved)
{
    // Nest one lock of every declared class in the declared order,
    // with an unranked test lock innermost: simcheck observes every
    // nesting and reports none of them.
    Device dev(CostModel{}, 1 << 20);
    DeviceLock la{"tlb.entry"}, lb{"pt.bucket"}, lc{"pc.alloc"},
        ld{"pc.reserve"}, lx{"test.unranked"};
    dev.launch(1, 2, [&](Warp& w) {
        la.acquire(w);
        lb.acquire(w);
        lc.acquire(w);
        ld.acquire(w);
        lx.acquire(w);
        w.stall(50);
        lx.release(w);
        ld.release(w);
        lc.release(w);
        lb.release(w);
        la.release(w);
    });
    EXPECT_EQ(SimCheck::get().reports().size(), 0u);
}

TEST_F(LockContractTest, NestingAgainstTheDeclaredOrderIsReported)
{
    // A single warp takes a page-table bucket and then a TLB entry:
    // no cycle can form, but kLockOrder ranks tlb.entry first, so the
    // nesting itself is the report.
    Device dev(CostModel{}, 1 << 20);
    DeviceLock bucket{"pt.bucket", 3}, entry{"tlb.entry", 5};
    dev.launch(1, 1, [&](Warp& w) {
        bucket.acquire(w);
        entry.acquire(w);
        entry.release(w);
        bucket.release(w);
    });
    SimCheck& sc = SimCheck::get();
    EXPECT_EQ(sc.count(ReportKind::LockOrder), 1u);
    EXPECT_TRUE(sc.hasReport(ReportKind::LockOrder, "tlb.entry[5]"));
    EXPECT_TRUE(sc.hasReport(ReportKind::LockOrder, "pt.bucket[3]"));
    EXPECT_EQ(sc.count(ReportKind::LockCycle), 0u);
}

TEST_F(LockContractTest, FullStackWorkloadRespectsDeclaredOrder)
{
    // Drive the real stack hard enough to touch every lock class:
    // TLB-routed faults (tlb.entry), page-table buckets (pt.bucket),
    // eviction pressure on a small cache (pc.alloc) and, with a
    // registry attached, the reclaim reserve (pc.reserve). simcheck
    // ranks every nesting it observes against ap::kLockOrder.
    core::GvmConfig g;
    g.useTlb = true;
    g.tlbEntries = 8;
    gpufs::Config cfg;
    cfg.numFrames = 16; // small: forces eviction through allocFrame
    hostio::BackingStore bs;
    Device dev(CostModel{}, size_t(64) << 20);
    hostio::HostIoEngine io(dev, bs);
    gpufs::GpuFs fs(dev, io, cfg);
    core::GvmRuntime rt(fs, g);
    tenant::TenantRegistry reg;
    fs.cache().setTenantRegistry(&reg);

    const size_t words = 64 * 1024;
    hostio::FileId f = bs.create("wl", words * 4);
    dev.launch(2, 4, [&](Warp& w) {
        auto p = core::gvmmap<uint32_t>(w, rt, words * 4,
                                        hostio::O_GRDONLY, f, 0);
        // Stride across pages so each round faults, relinks, and
        // eventually recycles frames through the allocator.
        for (int i = 0; i < 24; ++i) {
            p.read(w);
            p.add(w, static_cast<int64_t>(gpufs::kPageBytes / 4));
        }
        p.destroy(w);
    });

    EXPECT_GT(dev.stats().counter("tenant.reserve_refills"), 0u);
    EXPECT_EQ(SimCheck::get().count(ReportKind::LockOrder), 0u);
    EXPECT_EQ(SimCheck::get().count(ReportKind::LockCycle), 0u);
}

} // namespace
} // namespace ap::sim::check
