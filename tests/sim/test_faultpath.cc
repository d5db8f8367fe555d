/**
 * @file
 * Units for the fault-path recorder (docs/OBSERVABILITY.md): stage
 * stamp semantics (keep-first vs keep-latest), telescoping of stage
 * deltas to the end-to-end total, retry attribution, flow-event
 * well-formedness, the tracer's bounded-memory event cap, and the
 * fault-chain audit simcheck runs over the recorder's own records.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "sim/check/simcheck.hh"
#include "sim/device.hh"
#include "sim/faultpath.hh"
#include "sim/trace.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace ap::sim {
namespace {

/** Count occurrences of @p needle in @p s. */
size_t
countOf(const std::string& s, const std::string& needle)
{
    size_t n = 0;
    for (size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + needle.size()))
        n++;
    return n;
}

TEST(FaultPath, FullChainTelescopesToTotal)
{
    StatGroup stats;
    Tracer tr;
    FaultPath fp(stats, tr);

    uint64_t fid = fp.begin(3, 1, 42, 1000);
    ASSERT_NE(fid, 0u);
    EXPECT_EQ(fp.openCount(), 1u);
    fp.stamp(fid, FaultStage::Lookup, 1100);
    fp.stamp(fid, FaultStage::Alloc, 1250);
    fp.stamp(fid, FaultStage::Enqueue, 1300);
    fp.stamp(fid, FaultStage::TransferStart, 1800);
    fp.stamp(fid, FaultStage::TransferEnd, 2800);
    fp.stamp(fid, FaultStage::Fill, 2900);
    fp.end(fid, FaultKind::Major, 3000);
    EXPECT_EQ(fp.openCount(), 0u);

    EXPECT_EQ(stats.counter("faultpath.faults.major"), 1u);
    auto seg = [&](const char* s) {
        const Histogram* h =
            stats.findHistogram(std::string("faultpath.major.") + s);
        return h ? h->sum() : -1.0;
    };
    EXPECT_EQ(seg("lookup"), 100.0);
    EXPECT_EQ(seg("alloc"), 150.0);
    EXPECT_EQ(seg("enqueue"), 50.0);
    EXPECT_EQ(seg("queue_wait"), 500.0);
    EXPECT_EQ(seg("transfer"), 1000.0);
    EXPECT_EQ(seg("fill"), 100.0);
    EXPECT_EQ(seg("wakeup"), 100.0);
    EXPECT_EQ(seg("total"), 2000.0);
    // The stages telescope: their sum IS the end-to-end latency.
    double stage_sum = seg("lookup") + seg("alloc") + seg("enqueue") +
                       seg("queue_wait") + seg("transfer") + seg("fill") +
                       seg("wakeup");
    EXPECT_EQ(stage_sum, seg("total"));
    // Subsystem rollup: hostio owns enqueue+queue_wait+transfer.
    EXPECT_EQ(stats.findHistogram("faultpath.subsys.hostio")->sum(),
              1550.0);
}

TEST(FaultPath, SkippedStagesStillTelescope)
{
    // A minor fault stamps only Lookup; the rest of the time is
    // wakeup. No zero-length phantom stages appear.
    StatGroup stats;
    Tracer tr;
    FaultPath fp(stats, tr);
    uint64_t fid = fp.begin(0, 1, 7, 500);
    fp.stamp(fid, FaultStage::Lookup, 600);
    fp.end(fid, FaultKind::Minor, 650);
    EXPECT_EQ(stats.findHistogram("faultpath.minor.lookup")->sum(),
              100.0);
    EXPECT_EQ(stats.findHistogram("faultpath.minor.wakeup")->sum(), 50.0);
    EXPECT_EQ(stats.findHistogram("faultpath.minor.total")->sum(), 150.0);
    EXPECT_EQ(stats.findHistogram("faultpath.minor.alloc"), nullptr);
}

TEST(FaultPath, LookupAndEnqueueKeepFirstTransferKeepsLatest)
{
    StatGroup stats;
    Tracer tr;
    FaultPath fp(stats, tr);
    uint64_t fid = fp.begin(0, 1, 7, 0);
    fp.stamp(fid, FaultStage::Lookup, 100);
    fp.stamp(fid, FaultStage::Lookup, 900); // re-probe: ignored
    fp.stamp(fid, FaultStage::Enqueue, 200);
    fp.stamp(fid, FaultStage::TransferStart, 300);
    fp.stamp(fid, FaultStage::TransferEnd, 400);
    // Retry: Enqueue keeps the first stamp, transfer marks move.
    fp.attempt(fid);
    fp.stamp(fid, FaultStage::Enqueue, 500);
    fp.stamp(fid, FaultStage::TransferStart, 600);
    fp.stamp(fid, FaultStage::TransferEnd, 700);
    fp.end(fid, FaultKind::Major, 800);

    EXPECT_EQ(stats.counter("faultpath.retries"), 1u);
    EXPECT_EQ(stats.findHistogram("faultpath.major.lookup")->sum(),
              100.0);
    EXPECT_EQ(stats.findHistogram("faultpath.major.enqueue")->sum(),
              100.0);
    // queue_wait = 600-200: the failed attempt's wait and backoff all
    // land in the wait for the attempt that succeeded.
    EXPECT_EQ(stats.findHistogram("faultpath.major.queue_wait")->sum(),
              400.0);
    EXPECT_EQ(stats.findHistogram("faultpath.major.transfer")->sum(),
              100.0);
}

TEST(FaultPath, ZeroAndUnknownIdsAreNoops)
{
    StatGroup stats;
    Tracer tr;
    FaultPath fp(stats, tr);
    fp.stamp(0, FaultStage::Lookup, 10);
    fp.attempt(0);
    fp.end(0, FaultKind::Major, 10);
    fp.stamp(999, FaultStage::Lookup, 10);
    fp.attempt(999);
    fp.end(999, FaultKind::Major, 10);
    EXPECT_EQ(stats.counter("faultpath.faults.major"), 0u);
    EXPECT_EQ(stats.counter("faultpath.retries"), 0u);
    EXPECT_EQ(fp.openCount(), 0u);
}

TEST(FaultPath, ManyOpenFaultsCloseInAnyOrder)
{
    // Faults stay open across many later IDs and close in random
    // order, so the record table wraps, collides and grows; every
    // close must still find its own record, and only once.
    StatGroup stats;
    Tracer tr;
    FaultPath fp(stats, tr);
    SplitMix64 rng(7);
    std::vector<uint64_t> open;
    uint64_t closed = 0;
    for (int step = 0; step < 5000; ++step) {
        if (open.empty() || (open.size() < 300 && rng.nextBounded(3) != 0)) {
            open.push_back(fp.begin(0, 1, step, 100));
            continue;
        }
        const size_t i = rng.nextBounded(open.size());
        const uint64_t fid = open[i];
        open[i] = open.back();
        open.pop_back();
        fp.stamp(fid, FaultStage::Lookup, 101);
        fp.end(fid, FaultKind::Minor, 105);
        fp.end(fid, FaultKind::Minor, 200); // already closed: a no-op
        ++closed;
        ASSERT_EQ(fp.openCount(), open.size());
    }
    for (uint64_t fid : open)
        fp.end(fid, FaultKind::Minor, 105);
    closed += open.size();
    EXPECT_EQ(fp.openCount(), 0u);
    EXPECT_EQ(fp.issued(), closed);
    EXPECT_EQ(stats.counter("faultpath.faults.minor"), closed);
    const Histogram* total = stats.findHistogram("faultpath.minor.total");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->count(), closed);
    EXPECT_EQ(total->sum(), 5.0 * static_cast<double>(closed));
    const Histogram* lookup = stats.findHistogram("faultpath.minor.lookup");
    ASSERT_NE(lookup, nullptr);
    EXPECT_EQ(lookup->count(), closed - open.size());
}

TEST(FaultPath, FlowEventsAreWellFormed)
{
    StatGroup stats;
    Tracer tr;
    tr.enable();
    FaultPath fp(stats, tr);

    // Two faults, one with a DMA hop (TransferStart stamped).
    uint64_t a = fp.begin(1, 1, 10, 0);
    fp.stamp(a, FaultStage::Lookup, 10);
    fp.stamp(a, FaultStage::TransferStart, 20);
    fp.stamp(a, FaultStage::TransferEnd, 30);
    fp.end(a, FaultKind::Major, 40);
    uint64_t b = fp.begin(2, 1, 11, 50);
    fp.stamp(b, FaultStage::Lookup, 60);
    fp.end(b, FaultKind::Minor, 70);

    std::ostringstream os;
    tr.writeJson(os);
    std::string s = os.str();
    // Every flow start has exactly one matching finish, ids unique.
    EXPECT_EQ(countOf(s, "\"ph\":\"s\""), 2u);
    EXPECT_EQ(countOf(s, "\"ph\":\"f\""), 2u);
    EXPECT_EQ(countOf(s, "\"ph\":\"t\""), 1u); // only a reached DMA
    EXPECT_EQ(countOf(s, "\"id\":" + std::to_string(a)), 3u);
    EXPECT_EQ(countOf(s, "\"id\":" + std::to_string(b)), 2u);
    // Binding point on the finish so the arrow lands at the span.
    EXPECT_EQ(countOf(s, "\"bp\":\"e\""), 2u);
    // Stage spans carry the fault args.
    EXPECT_NE(s.find("\"args\":{\"fault\":"), std::string::npos);
    EXPECT_NE(s.find("major.queue_wait"), std::string::npos);
    EXPECT_NE(s.find("minor.wakeup"), std::string::npos);
}

TEST(Tracer, EventCapBoundsMemoryAndCountsDrops)
{
    StatGroup stats;
    Tracer tr;
    tr.setStats(&stats);
    tr.setEventCap(4);
    tr.enable();
    for (int i = 0; i < 10; ++i)
        tr.instant(0, "x", "e", i);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    EXPECT_EQ(stats.counter("trace.dropped_events"), 6u);
    // clear() resets the buffer and the drop accounting.
    tr.clear();
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.dropped(), 0u);
    tr.instant(0, "x", "e", 0);
    EXPECT_EQ(tr.size(), 1u);
}

TEST(FaultPath, IssuedCountsMonotonically)
{
    StatGroup stats;
    Tracer tr;
    FaultPath fp(stats, tr);
    EXPECT_EQ(fp.issued(), 0u);
    uint64_t a = fp.begin(0, 0, 0, 0);
    uint64_t b = fp.begin(0, 0, 0, 0);
    EXPECT_NE(a, b);
    EXPECT_EQ(fp.issued(), 2u);
    fp.end(a, FaultKind::Minor, 1);
    fp.end(b, FaultKind::Minor, 1);
}

/**
 * Arms simcheck in report-collection mode and drives a device's fault
 * recorder directly, so each case can plant one defect in a chain.
 */
class FaultChainAudit : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        check::SimCheck& sc = check::SimCheck::get();
        sc.reset();
        sc.setEnabled(true);
        sc.setFailOnReport(false);
    }

    void
    TearDown() override
    {
        check::SimCheck& sc = check::SimCheck::get();
        sc.setEnabled(false);
        sc.reset();
    }

    /** True when exactly one report was collected and it is an
     * Invariant violation mentioning @p needle. */
    static bool
    soleInvariant(const std::string& needle)
    {
        const check::SimCheck& sc = check::SimCheck::get();
        return sc.reports().size() == 1 &&
               sc.hasReport(check::ReportKind::Invariant, needle);
    }

    Device dev{CostModel{}, size_t(1) << 20};
};

TEST_F(FaultChainAudit, StampBeforeThePreviousOneIsReported)
{
    FaultPath& fp = dev.faultPath();
    uint64_t fid = fp.begin(0, 1, 7, 100);
    fp.stamp(fid, FaultStage::Lookup, 200);
    fp.stamp(fid, FaultStage::Alloc, 150);
    EXPECT_TRUE(soleInvariant("moved backwards"));
}

TEST_F(FaultChainAudit, CloseBeforeTheLastStampIsReported)
{
    FaultPath& fp = dev.faultPath();
    uint64_t fid = fp.begin(0, 1, 7, 100);
    fp.stamp(fid, FaultStage::Fill, 500);
    fp.end(fid, FaultKind::Major, 400);
    EXPECT_TRUE(soleInvariant("before its last stamp"));
}

TEST_F(FaultChainAudit, KeepLatestStampOutOfStageOrderIsReported)
{
    // Each stamp is later than the one before, but the keep-latest
    // TransferStart lands after TransferEnd: the final chain is out of
    // stage order even though no single stamp moved backwards.
    FaultPath& fp = dev.faultPath();
    uint64_t fid = fp.begin(0, 1, 7, 100);
    fp.stamp(fid, FaultStage::TransferEnd, 200);
    fp.stamp(fid, FaultStage::TransferStart, 300);
    fp.end(fid, FaultKind::Major, 400);
    EXPECT_TRUE(soleInvariant("out of order"));
}

TEST_F(FaultChainAudit, FaultOpenWhenTheLaunchDrainsIsReported)
{
    dev.launch(1, 1, [&](Warp& w) {
        dev.faultPath().begin(w.globalWarpId(), 1, 7, w.now());
    });
    EXPECT_TRUE(soleInvariant("never closed"));
}

TEST_F(FaultChainAudit, FaultOpenAcrossManyLaterFaultsIsReported)
{
    // A thousand later faults open and close while the first stays
    // open: its record survives every wrap of the table, and the drain
    // reports it alone.
    uint64_t leaked = 0;
    dev.launch(1, 1, [&](Warp& w) {
        FaultPath& fp = dev.faultPath();
        leaked = fp.begin(w.globalWarpId(), 1, 7, w.now());
        for (int i = 0; i < 1000; ++i)
            fp.end(fp.begin(w.globalWarpId(), 1, 8, w.now()),
                   FaultKind::Minor, w.now());
    });
    EXPECT_EQ(dev.faultPath().openCount(), 1u);
    EXPECT_TRUE(
        soleInvariant("fault " + std::to_string(leaked) + " never closed"));
}

TEST_F(FaultChainAudit, CleanChainIsSilent)
{
    dev.launch(1, 1, [&](Warp& w) {
        FaultPath& fp = dev.faultPath();
        uint64_t fid = fp.begin(w.globalWarpId(), 1, 7, w.now());
        for (size_t i = 0; i < kFaultStages; ++i) {
            w.stall(10);
            fp.stamp(fid, static_cast<FaultStage>(i), w.now());
        }
        w.stall(10);
        fp.end(fid, FaultKind::Major, w.now());
    });
    EXPECT_EQ(check::SimCheck::get().reports().size(), 0u);
}

} // namespace
} // namespace ap::sim
