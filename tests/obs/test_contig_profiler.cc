/**
 * @file
 * ContigProfiler unit tests: run merge/split bookkeeping under
 * scripted resident/evicted page sequences with exact counter values,
 * and the per-group histogram snapshot (docs/OBSERVABILITY.md
 * "Translation telemetry").
 */

#include <gtest/gtest.h>

#include "gpufs/contig_profiler.hh"

namespace ap::gpufs {
namespace {

TEST(ContigProfiler, GrowsRunsAndCountsBridgingMerges)
{
    StatGroup st;
    ContigProfiler cp(st);
    hostio::FileId f = 1;
    cp.noteResidentPage(makePageKey(f, 0));
    cp.noteResidentPage(makePageKey(f, 2));
    EXPECT_EQ(cp.residentPages(), 2u);
    EXPECT_EQ(cp.runCount(), 2u);
    EXPECT_EQ(cp.maxRunNow(), 1u);
    EXPECT_EQ(st.counter("contig.merges"), 0u);

    // Page 1 bridges the two runs into one: exactly one merge.
    cp.noteResidentPage(makePageKey(f, 1));
    EXPECT_EQ(cp.residentPages(), 3u);
    EXPECT_EQ(cp.runCount(), 1u);
    EXPECT_EQ(cp.maxRunNow(), 3u);
    EXPECT_EQ(st.counter("contig.merges"), 1u);
    EXPECT_EQ(st.scalar("contig.max_run"), 3.0);

    // Extending an existing run is not a merge.
    cp.noteResidentPage(makePageKey(f, 3));
    EXPECT_EQ(cp.runCount(), 1u);
    EXPECT_EQ(cp.maxRunNow(), 4u);
    EXPECT_EQ(st.counter("contig.merges"), 1u);
}

TEST(ContigProfiler, InteriorEvictionSplitsRun)
{
    StatGroup st;
    ContigProfiler cp(st);
    hostio::FileId f = 1;
    for (uint64_t pg = 0; pg < 5; ++pg)
        cp.noteResidentPage(makePageKey(f, pg));
    ASSERT_EQ(cp.runCount(), 1u);
    ASSERT_EQ(cp.maxRunNow(), 5u);

    // Evicting an interior page splits one run into two.
    cp.noteEvictedPage(makePageKey(f, 2));
    EXPECT_EQ(cp.residentPages(), 4u);
    EXPECT_EQ(cp.runCount(), 2u);
    EXPECT_EQ(cp.maxRunNow(), 2u);
    EXPECT_EQ(st.counter("contig.splits"), 1u);

    // Trimming a run's edge is not a split.
    cp.noteEvictedPage(makePageKey(f, 0));
    EXPECT_EQ(cp.runCount(), 2u);
    EXPECT_EQ(st.counter("contig.splits"), 1u);

    cp.noteEvictedPage(makePageKey(f, 1));
    cp.noteEvictedPage(makePageKey(f, 3));
    cp.noteEvictedPage(makePageKey(f, 4));
    EXPECT_EQ(cp.residentPages(), 0u);
    EXPECT_EQ(cp.runCount(), 0u);
    EXPECT_EQ(cp.maxRunNow(), 0u);
    // The high-water scalar keeps the historical maximum.
    EXPECT_EQ(st.scalar("contig.max_run"), 5.0);
}

TEST(ContigProfiler, GroupsByTenantAndFile)
{
    StatGroup st;
    ContigProfiler cp(st);
    // Same page numbers in different (tenant, file) groups never
    // coalesce with each other.
    cp.noteResidentPage(makePageKey(1, 0));
    cp.noteResidentPage(makePageKey(2, 1));
    cp.noteResidentPage(makePageKey(tenant::TenantId(3), 1, 1));
    EXPECT_EQ(cp.residentPages(), 3u);
    EXPECT_EQ(cp.runCount(), 3u);
    EXPECT_EQ(cp.maxRunNow(), 1u);
    EXPECT_EQ(st.counter("contig.merges"), 0u);
}

TEST(ContigProfiler, SnapshotBuildsPerGroupHistograms)
{
    StatGroup st;
    ContigProfiler cp(st);
    // Group (default tenant, file 1): pages 0..3, one run of four.
    for (uint64_t pg = 0; pg < 4; ++pg)
        cp.noteResidentPage(makePageKey(1, pg));
    // Group (default tenant, file 2): a single page.
    cp.noteResidentPage(makePageKey(2, 7));
    // Group (tenant 3, file 1): a single page.
    cp.noteResidentPage(makePageKey(tenant::TenantId(3), 1, 9));

    cp.exportSnapshot();
    const Histogram* all = st.findHistogram("contig.runs");
    ASSERT_NE(all, nullptr);
    EXPECT_EQ(all->count(), 3u);
    EXPECT_EQ(all->max(), 4.0);
    const Histogram* f1 = st.findHistogram("contig.f1.runs");
    ASSERT_NE(f1, nullptr);
    EXPECT_EQ(f1->count(), 1u);
    EXPECT_EQ(f1->max(), 4.0);
    const Histogram* f2 = st.findHistogram("contig.f2.runs");
    ASSERT_NE(f2, nullptr);
    EXPECT_EQ(f2->count(), 1u);
    EXPECT_EQ(f2->max(), 1.0);
    // Non-default tenants carry the t<asid> prefix.
    const Histogram* t3 = st.findHistogram("contig.t3.f1.runs");
    ASSERT_NE(t3, nullptr);
    EXPECT_EQ(t3->count(), 1u);
    EXPECT_EQ(st.scalar("contig.resident_pages"), 6.0);
    EXPECT_EQ(st.scalar("contig.resident_runs"), 3.0);
    EXPECT_EQ(st.scalar("contig.max_resident_run"), 4.0);

    // A group that goes fully non-resident is reset by the next
    // snapshot, never left stale.
    cp.noteEvictedPage(makePageKey(2, 7));
    cp.exportSnapshot();
    f2 = st.findHistogram("contig.f2.runs");
    ASSERT_NE(f2, nullptr);
    EXPECT_EQ(f2->count(), 0u);
    all = st.findHistogram("contig.runs");
    ASSERT_NE(all, nullptr);
    EXPECT_EQ(all->count(), 2u);
    EXPECT_EQ(st.scalar("contig.resident_pages"), 5.0);
}

} // namespace
} // namespace ap::gpufs
