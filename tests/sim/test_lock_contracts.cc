/**
 * @file
 * Cross-check of the static lock hierarchy against runtime behavior:
 * aplint's lock-order rule enforces the declared order ap::kLockOrder
 * (tlb.entry < pt.bucket < pc.alloc) at the source level, and simcheck
 * records every observed nesting in its lock graph. These tests map
 * the runtime edges back to the declared classes and assert the two
 * views agree — a drift in either direction (a new nesting the
 * declaration doesn't allow, or a stale declaration) fails here.
 */

#include <gtest/gtest.h>

#include "core/vm.hh"
#include "sim/check/simcheck.hh"
#include "util/annotations.hh"

namespace ap::sim::check {
namespace {

/**
 * Map a DeviceLock debug name to its declared lock class. The name
 * patterns are set where the locks are constructed: SoftTlb entries
 * ("tlb[<blk>].entry[<i>]"), page-table buckets ("pt.bucket[<b>]"),
 * and the frame allocator ("pc.allocLock").
 */
std::string
classOf(const std::string& debug_name)
{
    if (debug_name.rfind("tlb[", 0) == 0)
        return "tlb.entry";
    if (debug_name.rfind("pt.bucket", 0) == 0)
        return "pt.bucket";
    if (debug_name == "pc.allocLock")
        return "pc.alloc";
    return "";
}

/** Rank of a class in the declared order; -1 if undeclared. */
int
rankOf(const std::string& cls)
{
    const size_t n = sizeof(ap::kLockOrder) / sizeof(ap::kLockOrder[0]);
    for (size_t i = 0; i < n; ++i)
        if (cls == ap::kLockOrder[i])
            return static_cast<int>(i);
    return -1;
}

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
    // Every name pattern the simulator assigns must map to a declared
    // class, and the declared classes must be distinct ranks.
    EXPECT_EQ(rankOf(classOf("tlb[3].entry[7]")), 0);
    EXPECT_EQ(rankOf(classOf("pt.bucket[12]")), 1);
    EXPECT_EQ(rankOf(classOf("pc.allocLock")), 2);
}

TEST_F(LockContractTest, NestedAcquisitionInDeclaredOrderIsObserved)
{
    // Synthetic control: nest three locks named after the three
    // classes, in the declared order, and verify the edges simcheck
    // records all map back to strictly increasing ranks. This pins the
    // debug-name patterns and the edge plumbing the real-workload test
    // below relies on.
    Device dev(CostModel{}, 1 << 20);
    DeviceLock la, lb, lc;
    la.debugName = "tlb[0].entry[0]";
    lb.debugName = "pt.bucket[0]";
    lc.debugName = "pc.allocLock";
    dev.launch(1, 2, [&](Warp& w) {
        la.acquire(w);
        lb.acquire(w);
        lc.acquire(w);
        w.stall(50);
        lc.release(w);
        lb.release(w);
        la.release(w);
    });

    int edges = 0;
    SimCheck::get().forEachLockEdge(
        [&](const std::string& from, const std::string& to) {
            int rf = rankOf(classOf(from));
            int rt = rankOf(classOf(to));
            ASSERT_GE(rf, 0) << from;
            ASSERT_GE(rt, 0) << to;
            EXPECT_LT(rf, rt) << from << " -> " << to;
            ++edges;
        });
    EXPECT_EQ(edges, 3); // (la,lb), (la,lc), (lb,lc)
    EXPECT_EQ(SimCheck::get().count(ReportKind::LockCycle), 0u);
}

TEST_F(LockContractTest, FullStackWorkloadRespectsDeclaredOrder)
{
    // Drive the real stack hard enough to touch every lock class:
    // TLB-routed faults (tlb.entry), page-table buckets (pt.bucket),
    // and eviction pressure on a small cache (pc.alloc). Every nesting
    // simcheck observes must then be consistent with ap::kLockOrder —
    // the runtime shadow of aplint's source-level lock-order rule.
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

    SimCheck::get().forEachLockEdge(
        [&](const std::string& from, const std::string& to) {
            int rf = rankOf(classOf(from));
            int rt_ = rankOf(classOf(to));
            // Unknown names would mean a lock class escaped the
            // declaration — that is itself a failure.
            ASSERT_GE(rf, 0) << "undeclared lock in edge: " << from;
            ASSERT_GE(rt_, 0) << "undeclared lock in edge: " << to;
            EXPECT_LE(rf, rt_) << from << " -> " << to
                               << " inverts the declared order";
        });
    EXPECT_EQ(SimCheck::get().count(ReportKind::LockCycle), 0u);
}

} // namespace
} // namespace ap::sim::check
