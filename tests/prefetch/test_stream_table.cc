/**
 * @file
 * Unit tests for the readahead stream table and throttle: pure host
 * logic, no device. Covers stream detection (sequential, strided,
 * backward, interleaved), the marker-driven window ramp, thrash
 * feedback, retry after a fully-throttled issue, LRU slot recycling,
 * and the throttle arithmetic.
 */

#include <gtest/gtest.h>

#include "prefetch/stream_table.hh"
#include "prefetch/throttle.hh"

namespace ap::prefetch {
namespace {

gpufs::ReadaheadConfig
testCfg()
{
    gpufs::ReadaheadConfig cfg;
    cfg.enabled = true;
    cfg.initialWindow = 4;
    cfg.maxWindow = 16;
    cfg.minWindow = 2;
    cfg.streams = 4;
    cfg.confirm = 2;
    cfg.maxStridePages = 64;
    return cfg;
}

TEST(StreamTable, SingleFaultDoesNotIssue)
{
    StreamTable t(testCfg());
    StreamDecision d = t.onFault(1, 0);
    EXPECT_FALSE(d.issue);
}

TEST(StreamTable, SequentialConfirmsAtThreshold)
{
    StreamTable t(testCfg());
    EXPECT_FALSE(t.onFault(1, 0).issue);
    StreamDecision d = t.onFault(1, 1);
    ASSERT_TRUE(d.issue);
    EXPECT_EQ(d.startPage, 2u);
    EXPECT_EQ(d.stride, 1);
    EXPECT_EQ(d.count, 4u); // initialWindow
}

TEST(StreamTable, HigherConfirmThresholdNeedsMoreFaults)
{
    gpufs::ReadaheadConfig cfg = testCfg();
    cfg.confirm = 3;
    StreamTable t(cfg);
    EXPECT_FALSE(t.onFault(1, 0).issue);
    EXPECT_FALSE(t.onFault(1, 1).issue);
    EXPECT_TRUE(t.onFault(1, 2).issue);
}

TEST(StreamTable, StridedStreamDetected)
{
    StreamTable t(testCfg());
    EXPECT_FALSE(t.onFault(1, 0).issue);
    // Two faults only set the stride candidate; a non-unit stride
    // needs an exact continuation before a window opens.
    EXPECT_FALSE(t.onFault(1, 3).issue);
    StreamDecision d = t.onFault(1, 6);
    ASSERT_TRUE(d.issue);
    EXPECT_EQ(d.stride, 3);
    EXPECT_EQ(d.startPage, 9u);
}

TEST(StreamTable, AccidentalDeltaPairDoesNotOpenAWindow)
{
    StreamTable t(testCfg());
    // Two random faults 7 pages apart look like a stride-7 stream for
    // exactly one fault; nothing continues it, so nothing is issued.
    EXPECT_FALSE(t.onFault(1, 20).issue);
    EXPECT_FALSE(t.onFault(1, 27).issue);
    EXPECT_FALSE(t.onFault(1, 3).issue);  // new stream, no match
    EXPECT_FALSE(t.onFault(1, 50).issue); // candidate vs page 3
    EXPECT_FALSE(t.onFault(1, 90).issue);
}

TEST(StreamTable, BackwardScanDetected)
{
    StreamTable t(testCfg());
    EXPECT_FALSE(t.onFault(1, 100).issue);
    StreamDecision d = t.onFault(1, 99);
    ASSERT_TRUE(d.issue);
    EXPECT_EQ(d.stride, -1);
    EXPECT_EQ(d.startPage, 98u);
}

TEST(StreamTable, StrideBeyondLimitIsNotAStream)
{
    StreamTable t(testCfg());
    EXPECT_FALSE(t.onFault(1, 0).issue);
    // 65 > maxStridePages: treated as an unrelated fault, which
    // starts a fresh stream rather than confirming a stride-65 one.
    EXPECT_FALSE(t.onFault(1, 65).issue);
    EXPECT_FALSE(t.onFault(1, 130).issue);
}

TEST(StreamTable, ReFaultOnSamePageMakesNoProgress)
{
    StreamTable t(testCfg());
    EXPECT_FALSE(t.onFault(1, 0).issue);
    EXPECT_FALSE(t.onFault(1, 0).issue); // re-fault: still conf 1
    EXPECT_TRUE(t.onFault(1, 1).issue);
}

TEST(StreamTable, DifferentFilesAreDifferentStreams)
{
    StreamTable t(testCfg());
    EXPECT_FALSE(t.onFault(1, 0).issue);
    // Same page numbers in another file must not look sequential.
    EXPECT_FALSE(t.onFault(2, 1).issue);
}

TEST(StreamTable, InterleavedStreamsDoNotCaptureEachOther)
{
    StreamTable t(testCfg());
    EXPECT_FALSE(t.onFault(1, 0).issue);
    EXPECT_FALSE(t.onFault(1, 1000).issue); // too far: a new stream
    StreamDecision a = t.onFault(1, 1);
    StreamDecision b = t.onFault(1, 1001);
    ASSERT_TRUE(a.issue);
    ASSERT_TRUE(b.issue);
    EXPECT_NE(a.sid, b.sid);
    EXPECT_EQ(a.startPage, 2u);
    EXPECT_EQ(b.startPage, 1002u);
    t.committed(a.sid, a.count);
    t.committed(b.sid, b.count);
    // Exact continuations keep matching their own stream.
    EXPECT_EQ(t.stream(a.sid).lastPage, 1u);
    t.onFault(1, 2);
    EXPECT_EQ(t.stream(a.sid).lastPage, 2u);
    EXPECT_EQ(t.stream(b.sid).lastPage, 1001u);
}

/** Walks a confirmed sequential stream and returns the issued counts. */
std::vector<uint32_t>
rampCounts(StreamTable& t, uint64_t pages)
{
    std::vector<uint32_t> counts;
    for (uint64_t p = 0; p < pages; ++p) {
        StreamDecision d = t.onFault(1, p);
        if (d.issue) {
            counts.push_back(d.count);
            t.committed(d.sid, d.count); // everything placed
        }
    }
    return counts;
}

TEST(StreamTable, WindowDoublesPerMarkerCrossingUpToCap)
{
    StreamTable t(testCfg());
    std::vector<uint32_t> counts = rampCounts(t, 64);
    ASSERT_GE(counts.size(), 4u);
    EXPECT_EQ(counts[0], 4u);
    EXPECT_EQ(counts[1], 8u);
    EXPECT_EQ(counts[2], 16u);
    for (size_t i = 2; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], 16u) << "chunk " << i; // capped
}

TEST(StreamTable, MarkerGatesIssueBetweenChunks)
{
    StreamTable t(testCfg());
    t.onFault(1, 0);
    StreamDecision d = t.onFault(1, 1);
    ASSERT_TRUE(d.issue);
    t.committed(d.sid, d.count); // issued [2,6); marker at 4
    EXPECT_FALSE(t.onFault(1, 2).issue);
    EXPECT_FALSE(t.onFault(1, 3).issue);
    StreamDecision next = t.onFault(1, 4); // crossed the marker
    ASSERT_TRUE(next.issue);
    EXPECT_EQ(next.count, 8u);
    EXPECT_EQ(next.startPage, 6u); // picks up where the chunk ended
}

TEST(StreamTable, ThrashHalvesWindowAndHoldsOneRound)
{
    StreamTable t(testCfg());
    t.onFault(1, 0);
    StreamDecision d = t.onFault(1, 1);
    t.committed(d.sid, d.count);
    t.onFault(1, 2);
    t.onFault(1, 3);
    StreamDecision d2 = t.onFault(1, 4); // crossing: window 8
    ASSERT_TRUE(d2.issue);
    EXPECT_EQ(d2.count, 8u);
    t.committed(d2.sid, d2.count);

    t.onThrash(1, 10); // a speculative page near the cursor was wasted
    EXPECT_EQ(t.stream(d2.sid).window, 4u);
    EXPECT_TRUE(t.stream(d2.sid).noGrow);

    // Walk the stream on; the next two crossings show probation
    // (window held flat once) and then the resumed ramp.
    std::vector<uint32_t> counts;
    for (uint64_t p = 5; p <= 16; ++p) {
        StreamDecision d3 = t.onFault(1, p);
        if (d3.issue) {
            counts.push_back(d3.count);
            t.committed(d3.sid, d3.count);
        }
    }
    ASSERT_GE(counts.size(), 2u);
    EXPECT_EQ(counts[0], 4u); // held flat by noGrow
    EXPECT_EQ(counts[1], 8u); // ramp resumes
}

TEST(StreamTable, ThrashNeverShrinksBelowMinWindow)
{
    StreamTable t(testCfg());
    t.onFault(1, 0);
    StreamDecision d = t.onFault(1, 1);
    for (int i = 0; i < 8; ++i)
        t.onThrash(1, 2);
    EXPECT_EQ(t.stream(d.sid).window, 2u); // minWindow
}

TEST(StreamTable, HitEndsThrashProbation)
{
    StreamTable t(testCfg());
    t.onFault(1, 0);
    StreamDecision d = t.onFault(1, 1);
    t.committed(d.sid, d.count);
    t.onThrash(1, 4);
    EXPECT_TRUE(t.stream(d.sid).noGrow);
    t.onHit(1, 5); // a guess was consumed after all
    EXPECT_FALSE(t.stream(d.sid).noGrow);
}

TEST(StreamTable, ThrashIgnoresUnconfirmedStreams)
{
    StreamTable t(testCfg());
    t.onFault(1, 0); // conf 1, window 0
    t.onThrash(1, 1);
    // The unconfirmed stream must not acquire a window via shrinking.
    for (int i = 0; i < t.size(); ++i)
        EXPECT_EQ(t.stream(i).window, 0u);
}

TEST(StreamTable, FullyThrottledIssueRetriesOnNextFault)
{
    StreamTable t(testCfg());
    t.onFault(1, 0);
    StreamDecision d = t.onFault(1, 1);
    ASSERT_TRUE(d.issue);
    t.committed(d.sid, 0); // throttle placed nothing
    // The very next stream fault retries instead of waiting for a
    // marker that was never planted.
    StreamDecision retry = t.onFault(1, 2);
    ASSERT_TRUE(retry.issue);
    EXPECT_EQ(retry.startPage, 3u);
}

TEST(StreamTable, LruRecyclingKeepsHotStreams)
{
    gpufs::ReadaheadConfig cfg = testCfg();
    cfg.streams = 2;
    StreamTable t(cfg);
    EXPECT_EQ(t.size(), 2);
    t.onFault(1, 0);    // stream A
    t.onFault(1, 1000); // stream B
    t.onFault(1, 1);    // A again (A is now hottest)
    t.onFault(1, 2000); // needs a slot: must recycle B, not A
    StreamDecision d = t.onFault(1, 2); // A still alive and confirmed
    ASSERT_TRUE(d.issue);
    EXPECT_EQ(d.startPage, 3u);
}

// ---------------------------------------------------------------------
// Throttle
// ---------------------------------------------------------------------

gpufs::ReadaheadConfig
throttleCfg()
{
    gpufs::ReadaheadConfig cfg;
    cfg.freeFrameWatermark = 1.0 / 32.0;
    cfg.maxQueueDepth = 48;
    return cfg;
}

TEST(Throttle, GrantsAllUnderNoPressure)
{
    Pressure p{1000, 1024, 0};
    EXPECT_EQ(throttleAllow(8, p, throttleCfg()), 8u);
}

TEST(Throttle, FrameFloorLimits)
{
    // floor = ceil(64/32) = 2; 5 free -> 3 speculative frames allowed.
    Pressure p{5, 64, 0};
    EXPECT_EQ(throttleAllow(8, p, throttleCfg()), 3u);
}

TEST(Throttle, ZeroAtOrBelowFrameFloor)
{
    Pressure at{2, 64, 0};
    Pressure below{1, 64, 0};
    EXPECT_EQ(throttleAllow(8, at, throttleCfg()), 0u);
    EXPECT_EQ(throttleAllow(8, below, throttleCfg()), 0u);
}

TEST(Throttle, QueueDepthLimits)
{
    Pressure p{1000, 1024, 46};
    EXPECT_EQ(throttleAllow(8, p, throttleCfg()), 2u);
}

TEST(Throttle, ZeroWhenQueueFull)
{
    Pressure p{1000, 1024, 48};
    EXPECT_EQ(throttleAllow(8, p, throttleCfg()), 0u);
}

TEST(Throttle, TightestConstraintWins)
{
    // Frames allow 3, queue allows 5, want 8 -> 3.
    Pressure p{5, 64, 43};
    EXPECT_EQ(throttleAllow(8, p, throttleCfg()), 3u);
}

} // namespace
} // namespace ap::prefetch
