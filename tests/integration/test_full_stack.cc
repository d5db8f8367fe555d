/**
 * @file
 * Integration scenarios across every layer at once: multiple files,
 * mixed gread/gwrite/gmmap/apointer access, prefetch, fault hooks,
 * eviction pressure, and multi-launch persistence.
 */

#include <gtest/gtest.h>

#include "core/vm.hh"
#include "util/rng.hh"

namespace ap {
namespace {

using core::AptrVec;
using sim::kWarpSize;
using sim::LaneArray;

struct FullStack
{
    explicit FullStack(uint32_t frames = 512)
    {
        cfg.numFrames = frames;
        dev = std::make_unique<sim::Device>(sim::CostModel{}, 96 << 20);
        io = std::make_unique<hostio::HostIoEngine>(*dev, bs);
        fs = std::make_unique<gpufs::GpuFs>(*dev, *io, cfg);
        rt = std::make_unique<core::GvmRuntime>(*fs);
    }

    gpufs::Config cfg;
    hostio::BackingStore bs;
    std::unique_ptr<sim::Device> dev;
    std::unique_ptr<hostio::HostIoEngine> io;
    std::unique_ptr<gpufs::GpuFs> fs;
    std::unique_ptr<core::GvmRuntime> rt;
};

TEST(FullStack, MixedApiProducerConsumerPipeline)
{
    // Producer warps gwrite() records; consumer warps map the same
    // file with apointers and transform in place; a final pass greads
    // and verifies — three APIs, one file, one launch each.
    FullStack fx;
    const uint32_t n = 16 * 1024;
    hostio::FileId f = fx.bs.create("pipe", n * 4);

    fx.dev->launch(2, 8, [&](sim::Warp& w) {
        uint32_t per = n / 16;
        uint32_t start = w.globalWarpId() * per;
        sim::Addr buf = 0;
        {
            static sim::DeviceLock alloc_lock{"test.alloc"};
            alloc_lock.acquire(w);
            buf = w.mem().alloc(per * 4);
            alloc_lock.release(w);
        }
        for (uint32_t i = 0; i < per; ++i)
            w.mem().store<uint32_t>(buf + i * 4, (start + i) * 2);
        w.chargeGlobalWrite(per * 4.0);
        EXPECT_EQ(fx.fs->gwrite(w, f, start * 4ull, per * 4, buf),
                  hostio::IoStatus::Ok);
    });

    fx.dev->launch(2, 8, [&](sim::Warp& w) {
        auto p = core::gvmmap<uint32_t>(w, *fx.rt, n * 4ull,
                                        hostio::O_GRDWR, f, 0);
        uint32_t per = n / 16;
        uint32_t start = w.globalWarpId() * per;
        LaneArray<int64_t> seek;
        for (int l = 0; l < kWarpSize; ++l)
            seek[l] = int64_t(start) + l;
        p.addPerLane(w, seek);
        for (uint32_t i = 0; i < per; i += kWarpSize) {
            auto v = p.read(w);
            for (int l = 0; l < kWarpSize; ++l)
                v[l] += 1;
            p.write(w, v);
            if (i + kWarpSize < per)
                p.add(w, kWarpSize);
        }
        p.destroy(w);
    });

    uint64_t errors = 0;
    fx.dev->launch(1, 4, [&](sim::Warp& w) {
        sim::Addr buf = w.mem().alloc(4096);
        for (uint32_t off = w.warpInBlock() * 4096; off < n * 4;
             off += 4 * 4096) {
            EXPECT_EQ(fx.fs->gread(w, f, off, 4096, buf),
                      hostio::IoStatus::Ok);
            for (uint32_t i = 0; i < 1024; ++i) {
                uint32_t idx = off / 4 + i;
                if (w.mem().load<uint32_t>(buf + i * 4) != idx * 2 + 1)
                    ++errors;
            }
        }
    });
    EXPECT_EQ(errors, 0u);

    fx.fs->cache().flushDirtyHost();
    uint32_t word;
    fx.bs.pread(f, &word, 4, 4000);
    EXPECT_EQ(word, 1000u * 2u + 1u);
}

TEST(FullStack, PrefetchHooksRefusedButFaultHooksTransform)
{
    // Fault hooks (the CryptFS path) compose with apointer access.
    FullStack fx;
    const size_t page = fx.fs->pageSize();
    hostio::FileId f = fx.bs.create("hooked", 8 * page);
    // File holds v ^ 0x5A everywhere; the hook "decrypts".
    for (size_t i = 0; i < 8 * page; ++i) {
        uint8_t c = static_cast<uint8_t>(i) ^ 0x5A;
        fx.bs.pwrite(f, &c, 1, i);
    }
    gpufs::PageHooks hooks;
    hooks.postFetch = [&](sim::Warp& w, gpufs::PageKey, sim::Addr fa,
                          size_t len) {
        w.issue(static_cast<int>(len / 64));
        uint8_t* p = fx.dev->mem().raw(fa, len);
        for (size_t i = 0; i < len; ++i)
            p[i] ^= 0x5A;
    };
    fx.fs->cache().setHooks(hooks);

    fx.dev->launch(1, 2, [&](sim::Warp& w) {
        auto p = core::gvmmap<uint8_t>(w, *fx.rt, 8 * page,
                                       hostio::O_GRDONLY, f, 0);
        p.addPerLane(w, LaneArray<int64_t>::iota(0));
        for (int it = 0; it < 8; ++it) {
            auto v = p.read(w);
            for (int l = 0; l < kWarpSize; ++l)
                ASSERT_EQ(v[l],
                          static_cast<uint8_t>(it * page / 2 + l));
            p.add(w, static_cast<int64_t>(page / 2));
        }
        p.destroy(w);
    });
}

TEST(FullStack, EvictionPressureWithMixedReadersAndWriters)
{
    FullStack fx(/*frames=*/64);
    const uint32_t pages = 256;
    hostio::FileId f = fx.bs.create("pressure", pages * 4096ull);
    fx.dev->launch(4, 8, [&](sim::Warp& w) {
        SplitMix64 rng(w.globalWarpId() * 3 + 1);
        auto p = core::gvmmap<uint32_t>(w, *fx.rt, pages * 4096ull,
                                        hostio::O_GRDWR, f, 0);
        for (int i = 0; i < 24; ++i) {
            uint64_t page = rng.nextBounded(pages);
            auto q = p.copyUnlinked(w);
            // Each warp owns a private word in every page.
            q.add(w, int64_t(page) * 1024 + w.globalWarpId());
            auto v = q.read(w, 0x1);
            v[0] += 1;
            q.write(w, v, 0x1);
            q.destroy(w);
        }
        p.destroy(w);
    });
    fx.fs->cache().flushDirtyHost();
    // Every written word must equal the number of times that warp
    // visited that page; sum over the file equals total visits.
    uint64_t sum = 0;
    for (uint32_t pg = 0; pg < pages; ++pg)
        for (uint32_t slot = 0; slot < 32; ++slot) {
            uint32_t v;
            fx.bs.pread(f, &v, 4, pg * 4096ull + slot * 4);
            sum += v;
        }
    EXPECT_EQ(sum, 32u * 24u);
    EXPECT_GE(fx.dev->stats().counter("gpufs.evictions"), 1u);
    EXPECT_GE(fx.dev->stats().counter("gpufs.writebacks"), 1u);
}

TEST(FullStack, PrefetchThenApointerScanAvoidsMajorsInKernel)
{
    FullStack fx(/*frames=*/512);
    const uint32_t pages = 128;
    hostio::FileId f = fx.bs.create("scan", pages * 4096ull);
    for (uint32_t pg = 0; pg < pages; ++pg) {
        uint64_t tag = pg;
        fx.bs.pwrite(f, &tag, 8, pg * 4096ull);
    }
    // Warm-up launch issues the advisory prefetch only.
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        fx.fs->gmadvise(w, f, 0, pages * 4096ull);
    });
    fx.dev->stats().reset();
    fx.dev->launch(2, 4, [&](sim::Warp& w) {
        auto p = core::gvmmap<uint64_t>(w, *fx.rt, pages * 4096ull,
                                        hostio::O_GRDONLY, f, 0);
        for (uint32_t pg = w.globalWarpId(); pg < pages; pg += 8) {
            auto q = p.copyUnlinked(w);
            q.add(w, int64_t(pg) * 512);
            EXPECT_EQ(q.read(w)[0], pg);
            q.destroy(w);
        }
        p.destroy(w);
    });
    EXPECT_EQ(fx.dev->stats().counter("gpufs.major_faults"), 0u);
}

TEST(FullStack, TwoFilesDoNotAlias)
{
    FullStack fx;
    hostio::FileId a = fx.bs.create("a", 16 * 4096);
    hostio::FileId b = fx.bs.create("b", 16 * 4096);
    uint32_t va = 0xAAAA, vb = 0xBBBB;
    fx.bs.pwrite(a, &va, 4, 4096);
    fx.bs.pwrite(b, &vb, 4, 4096);
    fx.dev->launch(1, 2, [&](sim::Warp& w) {
        hostio::FileId f = w.warpInBlock() == 0 ? a : b;
        auto p = core::gvmmap<uint32_t>(w, *fx.rt, 16 * 4096,
                                        hostio::O_GRDONLY, f, 0);
        p.add(w, 1024);
        EXPECT_EQ(p.read(w)[0],
                  w.warpInBlock() == 0 ? 0xAAAAu : 0xBBBBu);
        p.destroy(w);
    });
}

TEST(FullStack, StatePersistsAcrossLaunches)
{
    FullStack fx;
    hostio::FileId f = fx.bs.create("persist", 8 * 4096);
    // Launch 1 warms a page; launch 2 must take only a minor fault.
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        sim::Addr addr = fx.fs->gmmap(w, f, 0, hostio::O_GRDONLY);
        (void)addr;
        fx.fs->gmunmap(w, f, 0);
    });
    uint64_t majors = fx.dev->stats().counter("gpufs.major_faults");
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        fx.fs->gmmap(w, f, 0, hostio::O_GRDONLY);
        fx.fs->gmunmap(w, f, 0);
    });
    EXPECT_EQ(fx.dev->stats().counter("gpufs.major_faults"), majors);
}

} // namespace
} // namespace ap
