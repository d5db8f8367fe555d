/**
 * @file
 * Golden stats dump: one seeded kernel drives every stat the fault
 * path, the software TLB, the page cache, readahead and host IO
 * charge through StatGroup handles, and the device StatGroup's
 * dumpJson() must equal the committed golden_stats.json byte for byte.
 * No bench baseline gates names such as gpufs.releases,
 * core.pages_unlinked or the faultpath.<kind>.<stage> histograms, so
 * this is what catches a handle bound to a mistyped name, a charge
 * that moved, or a stat that now appears when it did not before.
 *
 * The kernel: a 4-entry TLB (bypasses on counted conflicts,
 * invalidations) and one scripted count-zero conflict, a read-write
 * file four times the 32-frame cache with readahead on (evictions,
 * dirty writebacks, speculative fills), and a transient read-fault
 * rate that makes the host-IO engine retry.
 *
 * On a mismatch the test writes the dump it got to
 * golden_stats.actual.json in its working directory; after a
 * deliberate change to what is charged, review that file and copy it
 * over tests/obs/golden_stats.json.
 */

#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/vm.hh"

namespace ap::core {
namespace {

constexpr uint32_t kFrames = 32;
constexpr uint64_t kFilePages = 4 * kFrames;
constexpr uint64_t kWordsPerPage = gpufs::kPageBytes / 4;

/**
 * A scripted count-zero conflict in the one-entry @p tlb (the
 * proactive decrement leaves page 0's mapping cached), then the
 * invalidation of page 1, which displaced it. The launched warp is
 * the leader of itself.
 */
void
scriptedConflict(sim::Warp& w, SoftTlb& tlb, gpufs::PageCache& cache,
                 hostio::FileId f) AP_ELECTS_LEADER
{
    const gpufs::PageKey k0 = gpufs::makePageKey(f, 0);
    const gpufs::PageKey k1 = gpufs::makePageKey(f, 1);
    sim::Addr fa = 0;
    gpufs::AcquireResult r0 = cache.acquirePage(w, k0, 1, false);
    tlb.insertAfterAcquire(w, k0, r0.frameAddr, 1, cache);
    tlb.lookupAndRef(w, k0, -1, fa);
    gpufs::AcquireResult r1 = cache.acquirePage(w, k1, 1, false);
    tlb.insertAfterAcquire(w, k1, r1.frameAddr, 1, cache);
    tlb.unref(w, k1, 1, cache);
}

/** Run the golden kernel on a fresh stack; return its stats dump. */
std::string
goldenDump()
{
    gpufs::Config cfg;
    cfg.numFrames = kFrames;
    cfg.readahead.enabled = true;
    GvmConfig g;
    g.useTlb = true;
    g.tlbEntries = 4;
    hostio::BackingStore bs;
    sim::Device dev(sim::CostModel{}, size_t(32) << 20);
    hostio::HostIoEngine io(dev, bs);
    gpufs::GpuFs fs(dev, io, cfg);
    GvmRuntime rt(fs, g);

    hostio::FaultInjector::Config icfg;
    icfg.seed = 11;
    icfg.transientReadRate = 0.02;
    hostio::FaultInjector inj(icfg);
    io.setFaultInjector(&inj);

    // Word i of the file holds i.
    const uint64_t bytes = kFilePages * gpufs::kPageBytes;
    const hostio::FileId f = bs.create("golden.bin", bytes);
    uint8_t* raw = bs.data(f, 0, bytes);
    for (uint32_t i = 0; i < bytes / 4; ++i)
        std::memcpy(raw + uint64_t(i) * 4, &i, 4);

    // Phase 1: one warp sweeps the file in order, incrementing one
    // word per page, while holding a linked apointer to page 0 so
    // installs that hash onto that entry bypass the TLB. The sweep
    // opens a readahead stream while the cache still has free frames.
    // The transient read faults make the host-IO engine retry.
    dev.launch(1, 1, [&](sim::Warp& w) {
        auto p = gvmmap<uint32_t>(w, rt, bytes, hostio::O_GRDWR, f, 0);
        auto pin = p.copyUnlinked(w);
        (void)pin.read(w);
        for (uint64_t pg = 0; pg < kFilePages; ++pg) {
            auto q = p.copyUnlinked(w);
            q.add(w, int64_t(pg * kWordsPerPage));
            sim::LaneArray<uint32_t> v = q.read(w);
            for (int l = 0; l < sim::kWarpSize; ++l)
                v[l] += 1;
            q.write(w, v);
            q.destroy(w);
        }
        // A page-cache minor fault (the last page is resident, its TLB
        // entry gone), then pages 2 and 4 with 3 bridging them: the
        // contiguity profiler merges two resident runs.
        for (uint64_t pg : {kFilePages - 1, uint64_t(2), uint64_t(4),
                            uint64_t(3)}) {
            auto q = p.copyUnlinked(w);
            q.add(w, int64_t(pg * kWordsPerPage));
            (void)q.read(w);
            q.destroy(w);
        }
        pin.destroy(w);
        p.destroy(w);
    });

    // Phase 2: the scripted conflict, in a runtime with a one-entry TLB.
    GvmConfig one = g;
    one.tlbEntries = 1;
    GvmRuntime rt1(fs, one);
    dev.launch(1, 1, [&](sim::Warp& w) {
        scriptedConflict(w, *rt1.tlbFor(w), fs.cache(), f);
    });
    io.setFaultInjector(nullptr);

    fs.cache().exportTranslationStatsHost();
    std::ostringstream os;
    dev.stats().dumpJson(os);
    return os.str();
}

TEST(StatsGolden, KernelReachesEveryHandleCharge)
{
    // The golden kernel must keep reaching the sites it exists to pin.
    const std::string dump = goldenDump();
    for (const char* name :
         {"\"core.fault_entries\"", "\"core.pages_linked\"",
          "\"core.pages_unlinked\"", "\"core.tlb_hits\"",
          "\"core.tlb_misses\"", "\"core.tlb_bypasses\"",
          "\"core.tlb_evictions\"", "\"tlb.evict.conflict\"",
          "\"tlb.evict.invalidation\"", "\"tlb.entry_hits_retired\"",
          "\"gpufs.major_faults\"", "\"gpufs.minor_faults\"",
          "\"gpufs.releases\"", "\"gpufs.evictions\"",
          "\"gpufs.writebacks\"", "\"prefetch.issued\"",
          "\"gpufs.prefetched_pages\"", "\"pagecache.evict.clock_sweep\"",
          "\"hostio.retries\"", "\"hostio.injected_faults\"",
          "\"hostio.write_requests\"", "\"faultpath.retries\"",
          "\"faultpath.major.queue_wait\"", "\"faultpath.minor.lookup\"",
          "\"faultpath.spec_fill.transfer\"", "\"faultpath.subsys.hostio\"",
          "\"contig.merges\"", "\"contig.max_run\""})
        EXPECT_NE(dump.find(name), std::string::npos) << name;
}

TEST(StatsGolden, DumpMatchesCommittedGolden)
{
    const std::string dump = goldenDump();
    // Deterministic: a second run on a fresh stack dumps the same bytes.
    EXPECT_EQ(goldenDump(), dump);

    std::ifstream in(AP_GOLDEN_STATS);
    ASSERT_TRUE(in.good()) << "cannot read " << AP_GOLDEN_STATS;
    std::stringstream want;
    want << in.rdbuf();
    if (dump != want.str()) {
        std::ofstream("golden_stats.actual.json") << dump;
        FAIL() << "stats dump differs from " << AP_GOLDEN_STATS
               << "; the dump this run produced is in "
                  "golden_stats.actual.json";
    }
}

} // namespace
} // namespace ap::core
