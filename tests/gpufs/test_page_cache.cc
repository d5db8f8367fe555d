// aplint: allow-file(leader-only) single-warp test harness: the launched warp is the
// leader by construction, exercising the cache API without an election.

#include <gtest/gtest.h>

#include "gpufs/gpufs.hh"

namespace ap::gpufs {
namespace {

struct CacheFixture
{
    explicit CacheFixture(uint32_t frames = 64, uint32_t staging = 8)
    {
        cfg.numFrames = frames;
        cfg.stagingSlots = staging;
        dev = std::make_unique<sim::Device>(sim::CostModel{}, 64 << 20);
        io = std::make_unique<hostio::HostIoEngine>(*dev, bs);
        cache = std::make_unique<PageCache>(*dev, *io, cfg);
    }

    /** Create a file whose every 8-byte word encodes its offset. */
    hostio::FileId
    makePatternFile(const std::string& name, size_t size)
    {
        hostio::FileId f = bs.create(name, size);
        auto* p = bs.data(f, 0, size);
        for (size_t i = 0; i + 8 <= size; i += 8)
            std::memcpy(p + i, &i, 8);
        return f;
    }

    Config cfg;
    hostio::BackingStore bs;
    std::unique_ptr<sim::Device> dev;
    std::unique_ptr<hostio::HostIoEngine> io;
    std::unique_ptr<PageCache> cache;
};

TEST(PageCache, MajorThenMinorFault)
{
    CacheFixture fx;
    hostio::FileId f = fx.makePatternFile("f", 64 * 4096);
    PageKey key = makePageKey(f, 5);
    bool first_major = false, second_major = true;
    uint64_t word = 0;
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        AcquireResult a = fx.cache->acquirePage(w, key, 1, false);
        first_major = a.majorFault;
        word = w.mem().load<uint64_t>(a.frameAddr + 16);
        fx.cache->releasePage(w, key, 1);
        AcquireResult b = fx.cache->acquirePage(w, key, 1, false);
        second_major = b.majorFault;
        fx.cache->releasePage(w, key, 1);
    });
    EXPECT_TRUE(first_major);
    EXPECT_FALSE(second_major);
    EXPECT_EQ(word, 5u * 4096u + 16u); // pattern = file offset
    EXPECT_EQ(fx.dev->stats().counter("gpufs.major_faults"), 1u);
    EXPECT_EQ(fx.dev->stats().counter("gpufs.minor_faults"), 1u);
}

TEST(PageCache, RefcountAggregation)
{
    CacheFixture fx;
    hostio::FileId f = fx.makePatternFile("f", 16 * 4096);
    PageKey key = makePageKey(f, 2);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        fx.cache->acquirePage(w, key, 32, false);
    });
    EXPECT_EQ(fx.cache->residentRefcountHost(key), 32);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        fx.cache->releasePage(w, key, 30);
    });
    EXPECT_EQ(fx.cache->residentRefcountHost(key), 2);
}

TEST(PageCache, ConcurrentAcquireSinglePageLoadsOnce)
{
    CacheFixture fx;
    hostio::FileId f = fx.makePatternFile("f", 16 * 4096);
    PageKey key = makePageKey(f, 3);
    fx.dev->launch(2, 16, [&](sim::Warp& w) {
        AcquireResult r = fx.cache->acquirePage(w, key, 1, false);
        // Everyone must see the loaded data.
        EXPECT_EQ(w.mem().load<uint64_t>(r.frameAddr), 3u * 4096u);
        fx.cache->releasePage(w, key, 1);
    });
    EXPECT_EQ(fx.dev->stats().counter("gpufs.major_faults"), 1u);
    EXPECT_EQ(fx.cache->residentRefcountHost(key), 0);
}

TEST(PageCache, DistinctPagesGetDistinctFrames)
{
    CacheFixture fx;
    hostio::FileId f = fx.makePatternFile("f", 32 * 4096);
    std::set<uint32_t> frames;
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        for (uint64_t p = 0; p < 8; ++p) {
            AcquireResult r =
                fx.cache->acquirePage(w, makePageKey(f, p), 1, false);
            frames.insert(r.frame);
            fx.cache->releasePage(w, makePageKey(f, p), 1);
        }
    });
    EXPECT_EQ(frames.size(), 8u);
}

TEST(PageCache, EvictionRecyclesUnreferencedPages)
{
    CacheFixture fx(/*frames=*/8);
    hostio::FileId f = fx.makePatternFile("f", 64 * 4096);
    // Touch 32 pages through an 8-frame cache: 24+ evictions.
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        for (uint64_t p = 0; p < 32; ++p) {
            PageKey key = makePageKey(f, p);
            AcquireResult r = fx.cache->acquirePage(w, key, 1, false);
            EXPECT_EQ(w.mem().load<uint64_t>(r.frameAddr), p * 4096u);
            fx.cache->releasePage(w, key, 1);
        }
    });
    EXPECT_EQ(fx.dev->stats().counter("gpufs.major_faults"), 32u);
    EXPECT_GE(fx.dev->stats().counter("gpufs.evictions"), 24u);
}

TEST(PageCache, PinnedPagesAreNeverEvicted)
{
    CacheFixture fx(/*frames=*/8);
    hostio::FileId f = fx.makePatternFile("f", 64 * 4096);
    PageKey pinned = makePageKey(f, 0);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        AcquireResult p = fx.cache->acquirePage(w, pinned, 1, false);
        sim::Addr pinned_frame = p.frameAddr;
        for (uint64_t q = 1; q < 32; ++q) {
            PageKey key = makePageKey(f, q);
            AcquireResult r = fx.cache->acquirePage(w, key, 1, false);
            EXPECT_NE(r.frameAddr, pinned_frame);
            fx.cache->releasePage(w, key, 1);
        }
        // The pinned page's mapping is still intact and correct.
        EXPECT_EQ(w.mem().load<uint64_t>(pinned_frame), 0u);
        fx.cache->releasePage(w, pinned, 1);
    });
    EXPECT_EQ(fx.cache->residentRefcountHost(pinned), 0);
}

TEST(PageCache, DirtyPagesWrittenBackOnEviction)
{
    CacheFixture fx(/*frames=*/4);
    hostio::FileId f = fx.makePatternFile("f", 64 * 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        PageKey key = makePageKey(f, 1);
        AcquireResult r = fx.cache->acquirePage(w, key, 1, true);
        w.mem().store<uint64_t>(r.frameAddr, 0xfeedfaceULL);
        fx.cache->releasePage(w, key, 1);
        // Thrash the cache to force eviction of page 1.
        for (uint64_t q = 8; q < 24; ++q) {
            fx.cache->acquirePage(w, makePageKey(f, q), 1, false);
            fx.cache->releasePage(w, makePageKey(f, q), 1);
        }
    });
    uint64_t v;
    fx.bs.pread(f, &v, 8, 4096);
    EXPECT_EQ(v, 0xfeedfaceULL);
    EXPECT_GE(fx.dev->stats().counter("gpufs.writebacks"), 1u);
}

TEST(PageCache, FlushDirtyHostPersistsWithoutEviction)
{
    CacheFixture fx;
    hostio::FileId f = fx.makePatternFile("f", 16 * 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        AcquireResult r =
            fx.cache->acquirePage(w, makePageKey(f, 0), 1, true);
        w.mem().store<uint64_t>(r.frameAddr + 8, 0xabcdULL);
        fx.cache->releasePage(w, makePageKey(f, 0), 1);
    });
    fx.cache->flushDirtyHost();
    uint64_t v;
    fx.bs.pread(f, &v, 8, 8);
    EXPECT_EQ(v, 0xabcdULL);
}

TEST(PageCache, ManyWarpsManyPagesStress)
{
    CacheFixture fx(/*frames=*/32, /*staging=*/16);
    hostio::FileId f = fx.makePatternFile("f", 256 * 4096);
    // 64 warps each walk 16 pages with overlap; frames << working set.
    fx.dev->launch(4, 16, [&](sim::Warp& w) {
        SplitMix64 rng(w.globalWarpId() + 1);
        for (int i = 0; i < 16; ++i) {
            uint64_t p = rng.nextBounded(128);
            PageKey key = makePageKey(f, p);
            AcquireResult r = fx.cache->acquirePage(w, key, 1, false);
            EXPECT_EQ(w.mem().load<uint64_t>(r.frameAddr + 64),
                      p * 4096u + 64u);
            fx.cache->releasePage(w, key, 1);
        }
    });
    // Every page's refcount must have returned to zero.
    for (uint64_t p = 0; p < 128; ++p) {
        int32_t rc = fx.cache->residentRefcountHost(makePageKey(f, p));
        EXPECT_TRUE(rc == -1 || rc == 0) << "page " << p << " rc " << rc;
    }
}

TEST(PageCache, PartialTailPageZeroFilled)
{
    CacheFixture fx;
    hostio::FileId f = fx.bs.create("tail", 4096 + 100);
    std::memset(fx.bs.data(f, 4096, 100), 0x77, 100);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        AcquireResult r =
            fx.cache->acquirePage(w, makePageKey(f, 1), 1, false);
        EXPECT_EQ(w.mem().load<uint8_t>(r.frameAddr + 50), 0x77);
        EXPECT_EQ(w.mem().load<uint8_t>(r.frameAddr + 100), 0x00);
        fx.cache->releasePage(w, makePageKey(f, 1), 1);
    });
}

TEST(PageCacheDeath, ReleaseWithoutAcquirePanics)
{
    CacheFixture fx;
    hostio::FileId f = fx.makePatternFile("f", 16 * 4096);
    EXPECT_DEATH(fx.dev->launch(1, 1,
                                [&](sim::Warp& w) {
                                    fx.cache->releasePage(
                                        w, makePageKey(f, 0), 1);
                                }),
                 "non-resident");
}

TEST(PageCacheDeath, AllPagesPinnedIsFatal)
{
    CacheFixture fx(/*frames=*/4);
    hostio::FileId f = fx.makePatternFile("f", 64 * 4096);
    EXPECT_DEATH(fx.dev->launch(1, 1,
                                [&](sim::Warp& w) {
                                    for (uint64_t p = 0; p < 8; ++p)
                                        fx.cache->acquirePage(
                                            w, makePageKey(f, p), 1,
                                            false);
                                }),
                 "pinned|thrashing");
}

TEST(PageCacheDeath, BucketOfDirtyIdleEntriesNamesWhatItFound)
{
    // One entry per frame in buckets of 4: once every resident page is
    // dirty, a new page's full bucket holds only idle dirty entries,
    // which the overflow path must not displace. The abort says so
    // instead of blaming references nobody holds.
    Config cfg;
    cfg.numFrames = 32;
    cfg.entriesPerFrame = 1;
    cfg.bucketEntries = 4;
    hostio::BackingStore bs;
    sim::Device dev(sim::CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    GpuFs fs(dev, io, cfg);
    hostio::FileId f = bs.create("dirty", 64 * 4096);
    const sim::Addr src = dev.mem().alloc(64);
    EXPECT_DEATH(dev.launch(1, 1,
                            [&](sim::Warp& w) {
                                for (uint64_t p = 0; p < 64; ++p)
                                    EXPECT_EQ(fs.gwrite(w, f, p * 4096, 8,
                                                        src),
                                              hostio::IoStatus::Ok);
                            }),
                 "overflow: no clean idle entry to displace \\(0 "
                 "referenced, 0 loading, 4 idle but dirty");
}

} // namespace
} // namespace ap::gpufs
