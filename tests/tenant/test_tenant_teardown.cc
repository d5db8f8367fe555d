/**
 * @file
 * Tenant teardown tests: the full runtime teardown sequence, and
 * negative tests for the simcheck tenant auditor (cross-tenant touches
 * and teardown residue must be reported).
 */

#include <gtest/gtest.h>

#include "../core/fixture.hh"
#include "sim/check/simcheck.hh"
#include "tenant/tenant.hh"

namespace ap::core {
namespace {

GvmConfig
tlbConfig()
{
    GvmConfig g;
    g.useTlb = true;
    g.tlbEntries = 32;
    return g;
}

TEST(TenantTeardown, RuntimeTeardownAfterCleanShutdown)
{
    StackFixture fx(tlbConfig());
    hostio::FileId f = fx.makeWordFile("f", 8192);
    tenant::TenantRegistry reg;
    tenant::RegisterResult t1 = reg.registerTenant({"t", 1, 1});
    ASSERT_TRUE(t1.ok());
    fx.dev->launch(1, 2, [&](sim::Warp& w) {
        w.setTenant(t1.id);
        auto p = gvmmap<uint32_t>(w, *fx.rt, 8 * 4096,
                                  hostio::O_GRDONLY, f, 0);
        p.read(w);
        p.destroy(w);
    });
    // Quiesced: no TLB entries, no references — the full sequence
    // (TLB audit, cache scrub, ASID release) succeeds.
    EXPECT_EQ(fx.rt->teardownTenant(reg, t1.id),
              tenant::TenantStatus::Ok);
    EXPECT_FALSE(reg.active(t1.id));
    // And is not repeatable: the ASID is gone.
    EXPECT_EQ(fx.rt->teardownTenant(reg, t1.id),
              tenant::TenantStatus::Unknown);
}

TEST(TenantTeardown, LeakedTlbRoutedReferenceKeepsTeardownBusy)
{
    // The warp links a TLB-routed apointer and never destroys it. Its
    // TLB dies with the block when the launch returns, but the entry
    // took page-table references for the warp and never returned
    // them, so the cache scrub refuses and the ASID stays live.
    StackFixture fx(tlbConfig());
    hostio::FileId f = fx.makeWordFile("f", 8192);
    tenant::TenantRegistry reg;
    tenant::RegisterResult t1 = reg.registerTenant({"t", 1, 1});
    ASSERT_TRUE(t1.ok());
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(t1.id);
        auto p = gvmmap<uint32_t>(w, *fx.rt, 8 * 4096,
                                  hostio::O_GRDONLY, f, 0);
        p.read(w);
    });
    EXPECT_GT(fx.fs->cache().residentRefcountHost(
                  gpufs::makePageKey(t1.id, f, 0)),
              0);
    EXPECT_EQ(fx.rt->teardownTenant(reg, t1.id),
              tenant::TenantStatus::Busy);
    EXPECT_TRUE(reg.active(t1.id));
}

/** Arms the checker in report-collection mode (the AP_SIMCHECK suite
 * idiom): reports are recorded for inspection, not fatal. */
class TenantAuditTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::check::SimCheck& sc = sim::check::SimCheck::get();
        sc.reset();
        sc.setEnabled(true);
        sc.setFailOnReport(false);
    }

    void
    TearDown() override
    {
        sim::check::SimCheck& sc = sim::check::SimCheck::get();
        sc.setEnabled(false);
        sc.reset();
    }
};

TEST_F(TenantAuditTest, CrossTenantInsertIsReported)
{
    sim::check::SimCheck& sc = sim::check::SimCheck::get();
    // A warp bound to tenant 1 inserts a page owned by tenant 2.
    sc.pcInsert(7, gpufs::makePageKey(2, 1, 5), 1, 0, 0.0, 1);
    EXPECT_TRUE(sc.hasReport(sim::check::ReportKind::Invariant,
                             "cross-tenant"));
}

TEST_F(TenantAuditTest, SameTenantTouchesAreClean)
{
    sim::check::SimCheck& sc = sim::check::SimCheck::get();
    sc.pcInsert(7, gpufs::makePageKey(2, 1, 5), 1, 0, 0.0, 2);
    sc.pcRefAdjust(7, gpufs::makePageKey(2, 1, 5), 1, 0, 0.0, 2);
    EXPECT_EQ(sc.reports().size(), 0u);
}

TEST_F(TenantAuditTest, EvictionOfAnotherTenantsFrameIsExempt)
{
    // Reclaiming another tenant's cold frame is legal sharing of the
    // physical cache, not an isolation breach: claim/remove must not
    // trip the auditor.
    sim::check::SimCheck& sc = sim::check::SimCheck::get();
    uint64_t key = gpufs::makePageKey(2, 1, 5);
    sc.pcInsert(7, key, 1, 0, 0.0, 2);
    sc.pcReady(7, key, 0, 0.0);
    sc.pcRefAdjust(7, key, -1, 0, 0.0, 2);
    // Warp 1, bound to tenant 3, evicts: the eviction hooks take no
    // tenant, so there is nothing to flag.
    sc.pcClaim(7, key, 1, 0.0);
    sc.pcRemove(7, key, 1, 0.0);
    EXPECT_EQ(sc.reports().size(), 0u);
}

TEST_F(TenantAuditTest, TeardownResidualIsReported)
{
    sim::check::SimCheck& sc = sim::check::SimCheck::get();
    sc.pcInsert(7, gpufs::makePageKey(3, 1, 9), 1, 0, 0.0, 3);
    // Teardown with the page still tracked: residual state a later
    // tenant reusing the ASID could alias.
    sc.pcTeardownTenant(7, 3, 0.0);
    EXPECT_TRUE(sc.hasReport(sim::check::ReportKind::Invariant,
                             "residual"));
}

TEST_F(TenantAuditTest, BindingDiesWithItsLaunch)
{
    // A tenant binding belongs to one launch's warp. The next launch's
    // warp with the same global ID starts unbound (tenant 0), so its
    // touches of tenant-0 pages are not cross-tenant.
    StackFixture fx;
    hostio::FileId f = fx.makeWordFile("f", 8192);
    tenant::TenantRegistry reg;
    tenant::RegisterResult t1 = reg.registerTenant({"t", 1, 1});
    ASSERT_TRUE(t1.ok());
    auto readFirstPage = [&](sim::Warp& w) {
        auto p = gvmmap<uint32_t>(w, *fx.rt, 4096, hostio::O_GRDONLY, f, 0);
        p.read(w);
        p.destroy(w);
    };
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        w.setTenant(t1.id);
        readFirstPage(w);
    });
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(w.tenant(), 0);
        readFirstPage(w);
    });
    EXPECT_EQ(sim::check::SimCheck::get().count(
                  sim::check::ReportKind::Invariant),
              0u);
}

TEST_F(TenantAuditTest, CleanTeardownIsSilent)
{
    sim::check::SimCheck& sc = sim::check::SimCheck::get();
    uint64_t key = gpufs::makePageKey(3, 1, 9);
    sc.pcInsert(7, key, 1, 0, 0.0, 3);
    sc.pcReady(7, key, 0, 0.0);
    sc.pcRefAdjust(7, key, -1, 0, 0.0, 3);
    sc.pcClaim(7, key, 0, 0.0);
    sc.pcRemove(7, key, 0, 0.0);
    sc.pcTeardownTenant(7, 3, 0.0);
    EXPECT_EQ(sc.reports().size(), 0u);
}

} // namespace
} // namespace ap::core
