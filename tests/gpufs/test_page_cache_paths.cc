/**
 * @file
 * Pinned page-cache paths: each scripted run forces one rarely taken
 * path through the page-entry lifecycle and asserts the exact
 * counters, the exact elapsed cycles and the backing-store bytes it
 * leaves behind. The paths are the page-table bucket overflow, the
 * reclaim of a poisoned (Error) entry, readahead whose speculative
 * fills outrun the cache, and two tenants under QoS through reserve
 * refills, cross-tenant evictions and teardown. A change that moves
 * any of these by one cycle or one counter fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpufs/gpufs.hh"
#include "tenant/tenant.hh"

namespace ap::gpufs {
namespace {

constexpr size_t kPage = 4096;

/** The byte a file's pattern holds at (@p page, @p i). */
uint8_t
patternByte(uint64_t page, size_t i)
{
    return static_cast<uint8_t>(page * 7 + i * 13 + 1);
}

struct PathsFixture
{
    explicit PathsFixture(const Config& c) : cfg(c)
    {
        dev = std::make_unique<sim::Device>(sim::CostModel{}, 64 << 20);
        io = std::make_unique<hostio::HostIoEngine>(*dev, bs);
        fs = std::make_unique<GpuFs>(*dev, *io, cfg);
    }

    /** A file of @p size bytes holding the pattern. */
    hostio::FileId
    makeFile(const std::string& name, size_t size)
    {
        hostio::FileId f = bs.create(name, size);
        uint8_t* p = bs.data(f, 0, size);
        for (size_t off = 0; off < size; ++off)
            p[off] = patternByte(off / kPage, off % kPage);
        return f;
    }

    /**
     * The warp faults @p key as a unit: acquire, check the page's
     * first and last file bytes and its zeroed tail past EOF, release,
     * then report the fault to the cache's readahead (off unless the
     * test's config turns it on).
     * @return the acquire (its reference is already dropped)
     */
    AcquireResult
    touchPage(sim::Warp& w, PageKey key, bool writable = false)
        AP_ELECTS_LEADER
    {
        AcquireResult r = cache().acquirePage(w, key, 1, writable);
        if (!r.ok())
            return r;
        const uint64_t p = pageKeyPageNo(key);
        const size_t len =
            std::min<size_t>(kPage, bs.size(pageKeyFile(key)) - p * kPage);
        EXPECT_EQ(w.mem().load<uint8_t>(r.frameAddr + 3), patternByte(p, 3));
        EXPECT_EQ(w.mem().load<uint8_t>(r.frameAddr + len - 1),
                  patternByte(p, len - 1));
        if (len < kPage) {
            EXPECT_EQ(w.mem().load<uint8_t>(r.frameAddr + len), 0);
            EXPECT_EQ(w.mem().load<uint8_t>(r.frameAddr + kPage - 1), 0);
        }
        cache().releasePage(w, key, 1);
        cache().readahead(w, key);
        return r;
    }

    PageCache& cache() { return fs->cache(); }

    uint64_t counter(const std::string& n) { return dev->stats().counter(n); }

    /** Assert every named counter at once (one failure per mismatch). */
    void
    expectCounters(
        const std::vector<std::pair<std::string, uint64_t>>& want)
    {
        for (const auto& [name, v] : want)
            EXPECT_EQ(counter(name), v) << name;
    }

    Config cfg;
    hostio::BackingStore bs;
    std::unique_ptr<sim::Device> dev;
    std::unique_ptr<hostio::HostIoEngine> io;
    std::unique_ptr<GpuFs> fs;
};

TEST(PageCachePaths, BucketOverflowEvictsCleanIdleEntries)
{
    // 64 page-table entries in 16 buckets of 4 over 32 frames: with
    // two slots per frame, hash collisions fill some buckets while the
    // cache holds its 32 pages, and an insert into a full bucket
    // displaces a clean idle entry in place.
    Config cfg;
    cfg.numFrames = 32;
    cfg.entriesPerFrame = 2;
    cfg.bucketEntries = 4;
    PathsFixture fx(cfg);
    constexpr uint64_t kPages = 96;
    hostio::FileId f = fx.makeFile("overflow", kPages * kPage);
    const sim::Addr buf = fx.dev->mem().alloc(kPage);

    std::vector<sim::Cycles> cycles;
    for (int pass = 0; pass < 2; ++pass) {
        cycles.push_back(fx.dev->launch(1, 4, [&](sim::Warp& w) {
            for (uint64_t p = w.warpInBlock(); p < kPages; p += 4) {
                const uint64_t off = p * kPage + 64;
                if (pass == 0 && p % 16 == 5) {
                    // A few writes: the overflow path must skip them.
                    for (size_t i = 0; i < 32; ++i)
                        w.mem().store<uint8_t>(
                            buf + w.warpInBlock() * 32 + i,
                            static_cast<uint8_t>(0xa0 + p));
                    ASSERT_EQ(fx.fs->gwrite(w, f, off, 32,
                                            buf + w.warpInBlock() * 32),
                              hostio::IoStatus::Ok);
                } else {
                    EXPECT_TRUE(fx.touchPage(w, makePageKey(f, p)).ok());
                }
            }
        }));
    }
    fx.cache().flushDirtyHost();

    EXPECT_EQ(cycles[0], 617930.1737641436);
    EXPECT_EQ(cycles[1], 766428.5075938208);
    fx.expectCounters({{"gpufs.bucket_evictions", 9},
                       {"pagecache.evict.bucket_overflow", 9},
                       {"pagecache.evict.clock_sweep", 151},
                       {"gpufs.evictions", 151},
                       {"gpufs.writebacks", 6},
                       {"gpufs.major_faults", 192},
                       {"gpufs.minor_faults", 0}});
    for (uint64_t p = 0; p < kPages; ++p) {
        const uint8_t* d = fx.bs.data(f, p * kPage, kPage);
        for (size_t i = 0; i < kPage; ++i) {
            const bool written = p % 16 == 5 && i >= 64 && i < 96;
            const uint8_t want = written ? static_cast<uint8_t>(0xa0 + p)
                                         : patternByte(p, i);
            ASSERT_EQ(d[i], want) << "page " << p << " byte " << i;
        }
    }
}

TEST(PageCachePaths, PoisonedEntriesAreReclaimedOnRefaultAndBySweep)
{
    Config cfg;
    cfg.numFrames = 8;
    PathsFixture fx(cfg);
    hostio::FaultInjector fi;
    fx.io->setFaultInjector(&fi);
    hostio::FileId f = fx.makeFile("poison", 24 * kPage);
    fi.failReads(f, 2 * kPage, 4 * kPage); // pages 2..5 fail for good

    std::vector<sim::Cycles> cycles;
    int failed = 0;
    // Two warps fault the same pages: one fills, the other waits on the
    // Loading entry and drains with the error.
    cycles.push_back(fx.dev->launch(1, 2, [&](sim::Warp& w) {
        for (uint64_t p = 0; p < 8; ++p)
            if (!fx.touchPage(w, makePageKey(f, p), p == 1).ok())
                ++failed;
    }));
    // The device recovers. Page 3's next acquire reclaims its Error
    // entry and re-faults; the stream then needs frames, and the first
    // sweep revolution takes the remaining poisoned entries.
    fi.clearPersistent();
    cycles.push_back(fx.dev->launch(1, 1, [&](sim::Warp& w) {
        EXPECT_TRUE(fx.touchPage(w, makePageKey(f, 3)).ok());
        for (uint64_t p = 8; p < 24; ++p)
            EXPECT_TRUE(fx.touchPage(w, makePageKey(f, p)).ok());
        EXPECT_TRUE(fx.touchPage(w, makePageKey(f, 4)).ok());
    }));
    fx.cache().flushDirtyHost();

    EXPECT_EQ(failed, 8);
    EXPECT_EQ(cycles[0], 99916.470518165544);
    EXPECT_EQ(cycles[1], 268682.36748064181);
    fx.expectCounters({{"pagecache.fill_errors", 4},
                       {"pagecache.fill_error_hits", 4},
                       {"pagecache.poisoned_reclaims", 1},
                       {"pagecache.evict.poisoned_reclaim", 4},
                       {"pagecache.doa.poisoned_reclaim", 4},
                       {"pagecache.evict.clock_sweep", 14},
                       {"gpufs.evictions", 17},
                       {"gpufs.writebacks", 1},
                       {"gpufs.major_faults", 22},
                       {"gpufs.minor_faults", 4}});
    for (uint64_t p = 0; p < 24; ++p)
        for (size_t i = 0; i < kPage; i += 511)
            ASSERT_EQ(*fx.bs.data(f, p * kPage + i, 1), patternByte(p, i));
}

TEST(PageCachePaths, ReadaheadOutrunningTheCacheYieldsSpecVictims)
{
    Config cfg;
    cfg.numFrames = 32;
    cfg.readahead.enabled = true;
    cfg.readahead.maxWindow = 64;
    PathsFixture fx(cfg);
    // The last page is short: speculative fills zero its tail.
    constexpr uint64_t kPages = 128;
    hostio::FileId f = fx.makeFile("ra", (kPages - 1) * kPage + 1000);

    auto scan = [&](sim::Warp& w, uint64_t first, uint64_t last) {
        for (uint64_t p = first; p < last; ++p)
            EXPECT_TRUE(fx.touchPage(w, makePageKey(f, p)).ok()) << p;
    };
    std::vector<sim::Cycles> cycles;
    // A short stream confirms and opens the window, then stops: its
    // fills sit undemanded. A second stream elsewhere must evict them.
    cycles.push_back(fx.dev->launch(
        1, 1, [&](sim::Warp& w) { scan(w, 0, 12); }));
    cycles.push_back(fx.dev->launch(
        1, 1, [&](sim::Warp& w) { scan(w, 80, kPages); }));

    EXPECT_EQ(cycles[0], 107463.45443716498);
    EXPECT_EQ(cycles[1], 823615.96396663948);
    fx.expectCounters({{"pagecache.evict.spec_victim", 19},
                       {"pagecache.doa.spec_victim", 19},
                       {"pagecache.evict.clock_sweep", 28},
                       {"prefetch.issued", 28},
                       {"prefetch.useful", 9},
                       {"prefetch.wasted", 19},
                       {"gpufs.prefetched_pages", 28},
                       {"gpufs.evictions", 47},
                       {"gpufs.major_faults", 51},
                       {"gpufs.minor_faults", 9}});
    // The first stream's 19 unused guesses were evicted: each halved
    // its window from 16 toward minWindow and held its ramp.
    const prefetch::Stream& first = fx.cache().streams().stream(0);
    EXPECT_EQ(first.lastPage, 11u);
    EXPECT_EQ(first.window, 2u);
    EXPECT_TRUE(first.noGrow);
}

TEST(PageCachePaths, TwoTenantsRefillCrossEvictAndTearDown)
{
    Config cfg;
    cfg.numFrames = 32;
    PathsFixture fx(cfg);
    tenant::TenantRegistry reg;
    // a's weighted share is 21 of the 32 frames, b's only 5.
    tenant::RegisterResult a = reg.registerTenant({"a", 4, 1});
    tenant::RegisterResult b = reg.registerTenant({"b", 1, 1});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    fx.cache().setTenantRegistry(&reg);
    fx.io->setTenantRegistry(&reg);
    hostio::FileId f = fx.makeFile("shared", 128 * kPage);
    const sim::Addr buf = fx.dev->mem().alloc(kPage);

    auto stamp = [&](sim::Warp& w, tenant::TenantId asid, uint64_t p) {
        for (size_t i = 0; i < 16; ++i)
            w.mem().store<uint8_t>(buf + asid * 16 + i,
                                   static_cast<uint8_t>(0x40 + asid + p));
        ASSERT_EQ(fx.fs->gwrite(w, f, p * kPage + 200, 16, buf + asid * 16),
                  hostio::IoStatus::Ok);
    };
    std::vector<sim::Cycles> cycles;
    // Tenant a warms a few pages and dirties two; tenant b streams far
    // over its share, pre-evicting clean victims into the reserve.
    cycles.push_back(fx.dev->launch(1, 2, [&](sim::Warp& w) {
        const tenant::TenantId me = w.warpInBlock() == 0 ? a.id : b.id;
        w.setTenant(me);
        if (me == a.id) {
            for (uint64_t p = 0; p < 8; ++p)
                EXPECT_TRUE(fx.touchPage(w, makePageKey(me, f, p)).ok());
            stamp(w, me, 1);
            stamp(w, me, 6);
        } else {
            for (uint64_t p = 32; p < 96; ++p)
                EXPECT_TRUE(fx.touchPage(w, makePageKey(me, f, p)).ok());
        }
    }));
    // Tenant a, now under its share, faults more pages than the
    // reserve holds: reserve hits first, then b's frames.
    cycles.push_back(fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(a.id);
        for (uint64_t p = 8; p < 28; ++p)
            EXPECT_TRUE(fx.touchPage(w, makePageKey(a.id, f, p)).ok());
        stamp(w, a.id, 20);
    }));

    EXPECT_EQ(fx.cache().teardownTenantHost(a.id), tenant::TenantStatus::Ok);
    EXPECT_EQ(fx.cache().teardownTenantHost(b.id), tenant::TenantStatus::Ok);
    EXPECT_EQ(reg.framesOf(a.id), 0u);
    EXPECT_EQ(reg.framesOf(b.id), 0u);
    EXPECT_EQ(fx.cache().freeFrameCount(), 32u);

    EXPECT_EQ(cycles[0], 1156313.9737939355);
    EXPECT_EQ(cycles[1], 288440.08933890983);
    fx.expectCounters({{"pagecache.evict.reserve_refill", 16},
                       {"pagecache.evict.cross_tenant", 2},
                       {"pagecache.evict.teardown", 32},
                       {"pagecache.evict.clock_sweep", 42},
                       {"tenant.reserve_refills", 16},
                       {"tenant.reserve_hits", 16},
                       {"tenant.cross_evictions", 6},
                       {"tenant.evict_skipped", 28},
                       {"tenant.teardown_scrubbed", 32},
                       {"gpufs.evictions", 60},
                       {"gpufs.writebacks", 0},
                       {"gpufs.major_faults", 92}});
    for (uint64_t p = 0; p < 128; ++p) {
        const uint8_t* d = fx.bs.data(f, p * kPage, kPage);
        for (size_t i = 0; i < kPage; ++i) {
            const bool written =
                (p == 1 || p == 6 || p == 20) && i >= 200 && i < 216;
            const uint8_t want =
                written ? static_cast<uint8_t>(0x40 + a.id + p)
                        : patternByte(p, i);
            ASSERT_EQ(d[i], want) << "page " << p << " byte " << i;
        }
    }
}

} // namespace
} // namespace ap::gpufs
