/**
 * @file
 * Regression property test for the dirty-writeback race recorded in
 * DESIGN.md section 6: the first page-cache implementation removed a
 * dirty page's table entry before its writeback completed, so a
 * concurrent faulter could re-fetch stale file bytes and the dirty
 * data was later lost. The fix keeps the claimed (refcount = -1)
 * entry visible until writeback finishes.
 *
 * The property: a faulter that hits a dirty page at any point —
 * before its eviction, mid-writeback, or after — always observes the
 * post-writeback bytes, never the stale backing-file contents. The
 * faulter's arrival is swept across stall offsets to cover the
 * interleavings, and the whole run executes under simcheck, so any
 * happens-before violation or invariant break in the eviction path
 * fails the test too.
 */

// aplint: allow-file(leader-only) single-warp test harness: the launched warp is the
// leader by construction, exercising the cache API without an election.

#include <gtest/gtest.h>

#include "gpufs/page_cache.hh"
#include "sim/check/simcheck.hh"

namespace ap::gpufs {
namespace {

using sim::check::ReportKind;
using sim::check::SimCheck;

constexpr uint64_t kMarker = 0xABCDEF0123456789ULL;

TEST(WritebackRace, ConcurrentFaulterSeesPostWritebackBytes)
{
    for (sim::Cycles offset = 0; offset <= 60000; offset += 4000) {
        SimCheck& sc = SimCheck::get();
        sc.reset();
        sc.setEnabled(true);
        sc.setFailOnReport(false);

        Config cfg;
        cfg.numFrames = 6;
        cfg.stagingSlots = 4;
        hostio::BackingStore bs;
        sim::Device dev(sim::CostModel{}, 64 << 20);
        hostio::HostIoEngine io(dev, bs);
        PageCache cache(dev, io, cfg);

        hostio::FileId f = bs.create("wb", 128 * kPageBytes);
        {
            auto* p = bs.data(f, 0, 128 * kPageBytes);
            for (size_t i = 0; i + 8 <= 128 * kPageBytes; i += 8)
                std::memcpy(p + i, &i, 8);
        }
        PageKey dirty_key = makePageKey(f, 0);
        sim::Addr written_flag = dev.mem().alloc(8);
        sim::Addr reader_done = dev.mem().alloc(8);

        uint64_t observed = 0;
        dev.launch(1, 2, [&](sim::Warp& w) {
            if (w.warpInBlock() == 0) {
                // Dirty page 0, then publish "written" through an
                // atomic so the reader is ordered after the store.
                AcquireResult a =
                    cache.acquirePage(w, dirty_key, 1, true);
                w.mem().store<uint64_t>(a.frameAddr + 24, kMarker);
                cache.releasePage(w, dirty_key, 1);
                w.atomicExch<uint64_t>(written_flag, 1);

                // Pin two pages and stream transient faults through
                // the remaining frames: page 0 is refcount-zero, so
                // the eviction clock claims it and writes it back
                // while the reader warp may be mid-fault on it. The
                // pins stay below numFrames so the allocator always
                // finds a victim even when the reader briefly holds
                // page 0.
                cache.acquirePage(w, makePageKey(f, 1), 1, false);
                cache.acquirePage(w, makePageKey(f, 2), 1, false);
                uint64_t p = 3;
                for (; p <= 10; ++p) {
                    cache.acquirePage(w, makePageKey(f, p), 1, false);
                    cache.releasePage(w, makePageKey(f, p), 1);
                }
                // Once the reader is done, keep the pressure on until
                // page 0 has demonstrably been written back.
                while (w.atomicAdd<uint64_t>(reader_done, 0) == 0)
                    w.stall(500);
                for (; !cache.everWrittenHost(dirty_key) && p < 100;
                     ++p) {
                    cache.acquirePage(w, makePageKey(f, p), 1, false);
                    cache.releasePage(w, makePageKey(f, p), 1);
                }
                cache.releasePage(w, makePageKey(f, 1), 1);
                cache.releasePage(w, makePageKey(f, 2), 1);
            } else {
                while (w.atomicAdd<uint64_t>(written_flag, 0) == 0)
                    w.stall(200);
                w.stall(offset); // sweep arrival across the eviction
                AcquireResult r =
                    cache.acquirePage(w, dirty_key, 1, false);
                observed = w.mem().load<uint64_t>(r.frameAddr + 24);
                cache.releasePage(w, dirty_key, 1);
                w.atomicExch<uint64_t>(reader_done, 1);
            }
        });

        EXPECT_EQ(observed, kMarker)
            << "stale bytes at stall offset " << offset;
        EXPECT_TRUE(cache.everWrittenHost(dirty_key))
            << "eviction pressure never wrote page 0 back (offset "
            << offset << ")";
        sc.auditLeaks();
        for (const auto& r : sc.reports())
            ADD_FAILURE() << "simcheck report at offset " << offset
                          << ": " << r.message;
        sc.setEnabled(false);
        sc.reset();
    }
}

/**
 * The flush path variant: dirty bytes must also be what
 * flushDirtyHost writes to the backing store when the page was never
 * evicted at all.
 */
TEST(WritebackRace, HostFlushWritesDirtyBytes)
{
    SimCheck& sc = SimCheck::get();
    sc.reset();
    sc.setEnabled(true);
    sc.setFailOnReport(false);

    Config cfg;
    cfg.numFrames = 8;
    hostio::BackingStore bs;
    sim::Device dev(sim::CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    PageCache cache(dev, io, cfg);
    hostio::FileId f = bs.create("wb2", 8 * kPageBytes);

    PageKey key = makePageKey(f, 2);
    dev.launch(1, 1, [&](sim::Warp& w) {
        AcquireResult a = cache.acquirePage(w, key, 1, true);
        w.mem().store<uint64_t>(a.frameAddr, kMarker);
        cache.releasePage(w, key, 1);
    });
    cache.flushDirtyHost();

    uint64_t on_host = 0;
    std::memcpy(&on_host, bs.data(f, 2 * kPageBytes, 8), 8);
    EXPECT_EQ(on_host, kMarker);

    sc.auditLeaks();
    for (const auto& r : sc.reports())
        ADD_FAILURE() << "simcheck report: " << r.message;
    sc.setEnabled(false);
    sc.reset();
}

} // namespace
} // namespace ap::gpufs
