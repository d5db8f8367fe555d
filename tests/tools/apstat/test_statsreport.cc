/**
 * @file
 * apstat stats-mode tests: StatsReport parsing of a
 * StatGroup::dumpJson document and a golden print of the rebuilt
 * translation-telemetry tables (dead-entry breakdowns, contiguity
 * runs, per-tenant faults).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "json_reader.hh"
#include "statsreport.hh"

namespace ap::apstat {
namespace {

JsonValue
parse(const std::string& text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, v, err)) << err;
    return v;
}

TEST(StatsReport, RejectsNonStatsDocuments)
{
    StatsReport r;
    std::string err;
    EXPECT_FALSE(r.build(parse("[1,2]"), err));
    EXPECT_FALSE(r.build(parse("{\"foo\":1}"), err));
    EXPECT_NE(err.find("stats dump"), std::string::npos);
    // A trace envelope is not a stats dump either.
    EXPECT_FALSE(
        r.build(parse("{\"displayTimeUnit\":\"ns\",\"droppedEvents\":0,"
                      "\"traceEvents\":[]}"),
                err));
}

TEST(StatsReport, ParsesCountersScalarsAndHistograms)
{
    StatsReport r;
    std::string err;
    ASSERT_TRUE(r.build(
        parse("{\"counters\":{\"tlb.evict.conflict\":10},"
              "\"scalars\":{\"contig.max_run\":8},"
              "\"histograms\":{\"tlb.entry_lifetime\":{\"count\":14,"
              "\"min\":4,\"max\":900,\"mean\":120.5,\"p50\":64,"
              "\"p95\":512,\"p99\":896}}}"),
        err))
        << err;
    EXPECT_EQ(r.counters.at("tlb.evict.conflict"), 10.0);
    EXPECT_EQ(r.scalars.at("contig.max_run"), 8.0);
    ASSERT_EQ(r.hists.count("tlb.entry_lifetime"), 1u);
    EXPECT_EQ(r.hists.at("tlb.entry_lifetime").count, 14.0);
    EXPECT_EQ(r.hists.at("tlb.entry_lifetime").p95, 512.0);
    EXPECT_TRUE(r.hasTlb());
    EXPECT_TRUE(r.hasContig());
    EXPECT_FALSE(r.hasPageCache());
    EXPECT_FALSE(r.hasTenants());
}

TEST(StatsReport, EmptyDumpPrintsPlaceholder)
{
    StatsReport r;
    std::string err;
    ASSERT_TRUE(r.build(parse("{\"counters\":{},\"scalars\":{},"
                              "\"histograms\":{}}"),
                        err));
    std::ostringstream os;
    r.print(os);
    EXPECT_EQ(os.str(), "no translation telemetry in stats dump\n");
}

TEST(StatsReport, GoldenTelemetryTables)
{
    // One document exercising all four sections; the exact output is
    // pinned so format drift is a deliberate choice, not an accident.
    const std::string doc =
        "{\"counters\":{"
        "\"tlb.evict.conflict\":10,\"tlb.doa.conflict\":3,"
        "\"tlb.evict.teardown\":4,"
        "\"pagecache.evict.clock_sweep\":7,"
        "\"pagecache.evict.spec_victim\":5,"
        "\"pagecache.doa.spec_victim\":2,"
        "\"tenant.t1.minor_faults\":20,\"tenant.t1.major_faults\":5,"
        "\"tenant.t2.minor_faults\":8,\"tenant.t2.major_faults\":2},"
        "\"scalars\":{\"contig.resident_pages\":12,"
        "\"contig.resident_runs\":3,\"contig.max_resident_run\":6,"
        "\"contig.max_run\":8},"
        "\"histograms\":{"
        "\"tlb.entry_lifetime\":{\"count\":14,\"min\":4,\"max\":900,"
        "\"mean\":120.5,\"p50\":64,\"p95\":512,\"p99\":896},"
        "\"contig.runs\":{\"count\":3,\"min\":2,\"max\":6,\"mean\":4,"
        "\"p50\":4,\"p95\":6,\"p99\":6},"
        "\"contig.f3.runs\":{\"count\":2,\"min\":2,\"max\":6,"
        "\"mean\":4,\"p50\":4,\"p95\":6,\"p99\":6},"
        "\"tenant.t1.fault_cycles\":{\"count\":25,\"min\":5,"
        "\"max\":900,\"mean\":110,\"p50\":60,\"p95\":600,\"p99\":880}"
        "}}";
    StatsReport r;
    std::string err;
    ASSERT_TRUE(r.build(parse(doc), err)) << err;
    EXPECT_TRUE(r.hasTlb());
    EXPECT_TRUE(r.hasPageCache());
    EXPECT_TRUE(r.hasContig());
    EXPECT_TRUE(r.hasTenants());

    std::ostringstream os;
    r.print(os);
    const std::string golden =
        "TLB dead-entry breakdown (entries evicted with zero hits):\n"
        "reason    evicted  doa  doa%\n"
        "-----------------------------\n"
        "conflict  10       3    30.0%\n"
        "teardown  4        0    0.0%\n"
        "total     14       3    21.4%\n"
        "TLB entry lifetime / reuse distance (cycles):\n"
        "distribution        count  min  max    mean   p50   p95    "
        "p99\n"
        "----------------------------------------------------------------"
        "\n"
        "tlb.entry_lifetime  14     4.0  900.0  120.5  64.0  512.0  "
        "896.0\n"
        "\n"
        "Page-cache frame-lifetime breakdown (frames evicted with zero "
        "demand hits):\n"
        "reason       evicted  doa  doa%\n"
        "--------------------------------\n"
        "clock_sweep  7        0    0.0%\n"
        "spec_victim  5        2    40.0%\n"
        "total        12       2    16.7%\n"
        "\n"
        "Resident contiguity (pages: 12, runs: 3, longest now: 6, "
        "longest ever: 8)\n"
        "file  runs  min  max  mean  p50  p95  p99\n"
        "-----------------------------------------\n"
        "f3    2     2.0  6.0  4.0   4.0  6.0  6.0\n"
        "all   3     2.0  6.0  4.0   4.0  6.0  6.0\n"
        "\n"
        "Per-tenant faults:\n"
        "tenant  minor  major  faults  lat_mean  lat_p50  lat_p95\n"
        "--------------------------------------------------------\n"
        "t1      20     5      25      110.0     60.0     600.0\n"
        "t2      8      2      10      -         -        -\n";
    EXPECT_EQ(os.str(), golden);
}

TEST(StatsReport, DeadEntryTableListsEveryReasonTheDumpCarries)
{
    // "late_bypass" is no reason the simulator has today: the table
    // is built from the dump's own pagecache.evict.* keys, so a new
    // reason prints and counts toward the total with no apstat change.
    const std::string doc =
        "{\"counters\":{"
        "\"pagecache.evict.clock_sweep\":6,"
        "\"pagecache.doa.clock_sweep\":1,"
        "\"pagecache.evict.late_bypass\":4,"
        "\"pagecache.doa.late_bypass\":3},"
        "\"scalars\":{},\"histograms\":{}}";
    StatsReport r;
    std::string err;
    ASSERT_TRUE(r.build(parse(doc), err)) << err;
    std::ostringstream os;
    r.printPageCacheTable(os);
    const std::string golden =
        "Page-cache frame-lifetime breakdown (frames evicted with zero "
        "demand hits):\n"
        "reason       evicted  doa  doa%\n"
        "--------------------------------\n"
        "clock_sweep  6        1    16.7%\n"
        "late_bypass  4        3    75.0%\n"
        "total        10       4    40.0%\n";
    EXPECT_EQ(os.str(), golden);
}

} // namespace
} // namespace ap::apstat
