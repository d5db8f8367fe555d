// aplint: allow-file(leader-only) single-warp test harness: the launched warp is the
// leader by construction, exercising the cache API without an election.

/**
 * @file
 * Page-cache QoS tests: eviction isolation (an over-share streamer
 * recycles its own frames and cannot displace an under-share tenant's
 * residency), the reclaim-reserve fast path that keeps an under-share
 * tenant's allocation off the sweep convoy, and tenant teardown of
 * the cache footprint.
 */

#include <gtest/gtest.h>

#include "gpufs/page_cache.hh"
#include "tenant/tenant.hh"

namespace ap::gpufs {
namespace {

struct TenantCacheFixture
{
    explicit TenantCacheFixture(uint32_t frames = 32)
    {
        cfg.numFrames = frames;
        dev = std::make_unique<sim::Device>(sim::CostModel{}, 64 << 20);
        io = std::make_unique<hostio::HostIoEngine>(*dev, bs);
        cache = std::make_unique<PageCache>(*dev, *io, cfg);
        victim = reg.registerTenant({"victim", 1, 1});
        antag = reg.registerTenant({"antagonist", 1, 1});
        EXPECT_TRUE(victim.ok());
        EXPECT_TRUE(antag.ok());
    }

    hostio::FileId
    makeFile(const std::string& name, size_t size)
    {
        return bs.create(name, size);
    }

    /** Touch (acquire+release) pages [first, first+n) of @p f under
     * the warp's current tenant binding. */
    void
    touch(sim::Warp& w, tenant::TenantId asid, hostio::FileId f,
          uint64_t first, uint64_t n) AP_LEADER_ONLY
    {
        for (uint64_t i = 0; i < n; ++i) {
            PageKey key = makePageKey(asid, f, first + i);
            AcquireResult a = cache->acquirePage(w, key, 1, false);
            ASSERT_EQ(a.status, hostio::IoStatus::Ok);
            cache->releasePage(w, key, 1);
        }
    }

    Config cfg;
    hostio::BackingStore bs;
    tenant::TenantRegistry reg;
    std::unique_ptr<sim::Device> dev;
    std::unique_ptr<hostio::HostIoEngine> io;
    std::unique_ptr<PageCache> cache;
    tenant::RegisterResult victim;
    tenant::RegisterResult antag;
};

TEST(TenantCache, EvictionIsolationProtectsUnderShareResidency)
{
    TenantCacheFixture fx;
    fx.cache->setTenantRegistry(&fx.reg);
    hostio::FileId f = fx.makeFile("f", 256 * 4096);
    uint32_t refault_majors = 0;
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        // The victim warms a working set well under its fair share
        // (32 frames / 3 equal weights ≈ 10).
        w.setTenant(fx.victim.id);
        fx.touch(w, fx.victim.id, f, 0, 8);
        // The antagonist streams 64 distinct pages through the
        // 32-frame cache — far over its share, forcing evictions.
        w.setTenant(fx.antag.id);
        fx.touch(w, fx.antag.id, f, 64, 64);
        // The victim's pages must still be resident: the sweep
        // refuses under-share victims on behalf of an over-share
        // requester.
        w.setTenant(fx.victim.id);
        for (uint64_t i = 0; i < 8; ++i) {
            PageKey key = makePageKey(fx.victim.id, f, i);
            AcquireResult a = fx.cache->acquirePage(w, key, 1, false);
            ASSERT_EQ(a.status, hostio::IoStatus::Ok);
            if (a.majorFault)
                refault_majors++;
            fx.cache->releasePage(w, key, 1);
        }
    });
    EXPECT_EQ(refault_majors, 0u);
    EXPECT_GT(fx.dev->stats().counter("tenant.evict_skipped"), 0u);
    EXPECT_EQ(fx.dev->stats().counter("tenant.cross_evictions"), 0u);
}

TEST(TenantCache, WithoutRegistryTheClockEvictsColdVictimPages)
{
    // Ablation control: the same workload with QoS detached loses the
    // victim's residency — the guarantee above is the policy, not an
    // artifact of the clock.
    TenantCacheFixture fx;
    hostio::FileId f = fx.makeFile("f", 256 * 4096);
    uint32_t refault_majors = 0;
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(fx.victim.id);
        fx.touch(w, fx.victim.id, f, 0, 8);
        w.setTenant(fx.antag.id);
        fx.touch(w, fx.antag.id, f, 64, 64);
        w.setTenant(fx.victim.id);
        for (uint64_t i = 0; i < 8; ++i) {
            PageKey key = makePageKey(fx.victim.id, f, i);
            AcquireResult a = fx.cache->acquirePage(w, key, 1, false);
            ASSERT_EQ(a.status, hostio::IoStatus::Ok);
            if (a.majorFault)
                refault_majors++;
            fx.cache->releasePage(w, key, 1);
        }
    });
    EXPECT_GT(refault_majors, 0u);
}

TEST(TenantCache, ReclaimReserveServesUnderShareAllocations)
{
    TenantCacheFixture fx;
    fx.cache->setTenantRegistry(&fx.reg);
    hostio::FileId f = fx.makeFile("f", 256 * 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        // The antagonist's sweeps pre-evict extra clean victims into
        // the reclaim reserve while they hold allocLock anyway.
        w.setTenant(fx.antag.id);
        fx.touch(w, fx.antag.id, f, 64, 64);
        // A subsequent under-share allocation is served from the
        // reserve under the O(1) lock — never behind a sweep.
        w.setTenant(fx.victim.id);
        fx.touch(w, fx.victim.id, f, 0, 4);
    });
    EXPECT_GT(fx.dev->stats().counter("tenant.reserve_refills"), 0u);
    EXPECT_GT(fx.dev->stats().counter("tenant.reserve_hits"), 0u);
}

TEST(TenantCache, TeardownScrubsFramesAndFreesTheAsid)
{
    TenantCacheFixture fx;
    fx.cache->setTenantRegistry(&fx.reg);
    hostio::FileId f = fx.makeFile("f", 64 * 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(fx.antag.id);
        fx.touch(w, fx.antag.id, f, 0, 16);
    });
    EXPECT_EQ(fx.reg.framesOf(fx.antag.id), 16u);
    size_t free_before = fx.cache->freeFrameCount();
    EXPECT_EQ(fx.cache->teardownTenantHost(fx.antag.id),
              tenant::TenantStatus::Ok);
    EXPECT_EQ(fx.reg.framesOf(fx.antag.id), 0u);
    EXPECT_GT(fx.cache->freeFrameCount(), free_before);
    EXPECT_EQ(fx.reg.releaseTenant(fx.antag.id), tenant::TenantStatus::Ok);
}

TEST(TenantCache, TeardownRefusesWhilePagesAreReferenced)
{
    TenantCacheFixture fx;
    fx.cache->setTenantRegistry(&fx.reg);
    hostio::FileId f = fx.makeFile("f", 64 * 4096);
    PageKey held = makePageKey(fx.victim.id, f, 3);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(fx.victim.id);
        AcquireResult a = fx.cache->acquirePage(w, held, 1, false);
        ASSERT_EQ(a.status, hostio::IoStatus::Ok);
        // Hold the reference across the kernel boundary: the tenant
        // has not quiesced, so teardown must refuse.
    });
    EXPECT_EQ(fx.cache->teardownTenantHost(fx.victim.id),
              tenant::TenantStatus::Busy);
    EXPECT_EQ(fx.reg.releaseTenant(fx.victim.id), tenant::TenantStatus::Busy);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(fx.victim.id);
        fx.cache->releasePage(w, held, 1);
    });
    EXPECT_EQ(fx.cache->teardownTenantHost(fx.victim.id),
              tenant::TenantStatus::Ok);
    EXPECT_EQ(fx.reg.releaseTenant(fx.victim.id), tenant::TenantStatus::Ok);
}

TEST(TenantCache, SameOffsetDistinctTenantsGetDistinctPages)
{
    // The ASID is part of the page key: two tenants mapping the same
    // file offset must get distinct entries (distinct frames), not a
    // shared mapping that would leak data across address spaces.
    TenantCacheFixture fx;
    fx.cache->setTenantRegistry(&fx.reg);
    hostio::FileId f = fx.makeFile("f", 64 * 4096);
    sim::Addr fa = 0, fb = 0;
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(fx.victim.id);
        PageKey ka = makePageKey(fx.victim.id, f, 0);
        AcquireResult a = fx.cache->acquirePage(w, ka, 1, false);
        ASSERT_EQ(a.status, hostio::IoStatus::Ok);
        fa = a.frameAddr;
        w.setTenant(fx.antag.id);
        PageKey kb = makePageKey(fx.antag.id, f, 0);
        AcquireResult b = fx.cache->acquirePage(w, kb, 1, false);
        ASSERT_EQ(b.status, hostio::IoStatus::Ok);
        EXPECT_TRUE(b.majorFault); // not a hit on the other tenant's
        fb = b.frameAddr;
        fx.cache->releasePage(w, ka, 1);
        fx.cache->releasePage(w, kb, 1);
        w.setTenant(fx.victim.id);
    });
    EXPECT_NE(fa, fb);
}

TEST(TenantCache, AttachingToAWarmCacheChargesResidentFrames)
{
    // Fill the cache with no registry, then attach one: every frame
    // already resident is charged to its page's tenant, so the
    // evictions that follow un-charge frames that were charged.
    TenantCacheFixture fx(8);
    hostio::FileId f = fx.makeFile("f", 32 * 4096);
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        fx.touch(w, tenant::kDefaultTenant, f, 0, 8);
    });
    fx.cache->setTenantRegistry(&fx.reg);
    EXPECT_EQ(fx.reg.framesOf(tenant::kDefaultTenant), 8u);
    EXPECT_EQ(fx.reg.framesOf(fx.victim.id), 0u);

    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(fx.victim.id);
        fx.touch(w, fx.victim.id, f, 8, 8);
    });
    EXPECT_GT(fx.dev->stats().counter("gpufs.evictions"), 0u);
    // Each tenant is charged exactly the frames its pages still hold.
    for (tenant::TenantId id : {tenant::kDefaultTenant, fx.victim.id}) {
        uint64_t resident = 0;
        for (uint64_t pg = 0; pg < 16; ++pg)
            resident +=
                fx.cache->residentRefcountHost(makePageKey(id, f, pg)) >= 0;
        EXPECT_EQ(fx.reg.framesOf(id), resident) << "asid " << id;
    }
}

} // namespace
} // namespace ap::gpufs
