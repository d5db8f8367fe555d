/**
 * @file
 * The tenant registry: per-address-space identity, QoS weights, and
 * page-cache frame accounting for multi-tenant serving (DESIGN.md
 * section 13). The registry is the host-side source of truth the
 * sharing policies consume:
 *
 *  - the page cache charges every resident frame to the ASID in its
 *    page key and asks the registry for weighted capacity shares when
 *    the eviction clock must pick a victim (eviction isolation);
 *  - the host-IO engine queues each tenant's batched reads apart and
 *    credits each queue by the registry's IO weights in its one deficit
 *    round-robin dispatcher (fair scheduling); with no registry, all
 *    reads share one queue with unbounded credit;
 *  - serving/bench code registers one tenant per traffic class and
 *    tears them down at the end, which must leave no residual TLB,
 *    page-table, or frame state (audited by simcheck).
 *
 * The simulator is single-threaded (warp fibers), so the registry
 * needs no locking; its counters are functional host-side bookkeeping
 * like the page cache's free-frame mirror.
 */

#ifndef AP_TENANT_TENANT_HH
#define AP_TENANT_TENANT_HH

#include <string>
#include <vector>

#include "tenant/asid.hh"
#include "util/annotations.hh"

namespace ap::tenant {

/** What a tenant asks for at registration. */
struct TenantSpec
{
    /** Human-readable name (stat keys use the ASID, not this). */
    std::string name = "tenant";

    /** Relative share of page-cache capacity (0 = best-effort: may
     * only hold frames nobody else wants). */
    uint32_t cacheWeight = 1;

    /** Relative share of host-IO dispatch bandwidth (0 = floor-only:
     * never starved, but yields to any weighted tenant). */
    uint32_t ioWeight = 1;
};

/** Outcome of tenant registration and teardown operations. */
enum class TenantStatus : uint8_t {
    Ok = 0,
    /** All kMaxTenants ASIDs have been handed out (never reused). */
    TooMany,
    /** The ASID is not registered (or was already released). */
    Unknown,
    /** The tenant still owns resources (frames, live references); the
     * caller must scrub the page cache / quiesce first. */
    Busy,
};

/** Printable name of a TenantStatus. */
const char* tenantStatusName(TenantStatus st);

/** Result of TenantRegistry::registerTenant. */
struct RegisterResult
{
    TenantStatus status = TenantStatus::Ok;
    TenantId id = kDefaultTenant;

    /** True iff registration succeeded and @c id is valid. */
    bool ok() const { return status == TenantStatus::Ok; }
};

/**
 * Per-process tenant table. ASIDs are allocated sequentially starting
 * at 1 and never reused within a run, so a stale ASID in a shot-down
 * TLB entry or an in-flight IO request can never alias a new tenant.
 * ASID 0 is the always-registered default tenant (weight 1/1) that
 * unbound warps and single-tenant workloads run under.
 */
class TenantRegistry
{
  public:
    TenantRegistry();

    /**
     * Register a tenant and allocate its ASID.
     * @return Ok + the new ASID, or TooMany when the ASID space is
     *         exhausted
     */
    RegisterResult registerTenant(const TenantSpec& spec) AP_MUST_CHECK;

    /**
     * Release a tenant's ASID after teardown. Refuses while the tenant
     * still owns page-cache frames — run the page-cache scrub
     * (PageCache::teardownTenantHost) first.
     * @return Ok, Unknown for a bad/stale ASID, or Busy
     */
    TenantStatus releaseTenant(TenantId id) AP_MUST_CHECK;

    /** True iff @p id is registered and not released. */
    bool active(TenantId id) const;

    /** Registered-and-live tenant count (the default tenant included). */
    size_t activeCount() const { return active_; }

    /** Name given at registration ("default" for ASID 0). */
    const std::string& nameOf(TenantId id) const;

    /** Cached stat-key prefix "tenant.t<id>." for @p id. */
    const std::string& statPrefix(TenantId id) const;

    /** Cache weight of @p id (released tenants weigh 0). */
    uint32_t cacheWeightOf(TenantId id) const;

    /** IO weight of @p id (released tenants weigh 0). */
    uint32_t ioWeightOf(TenantId id) const;

    // ------------------------------------------------------------------
    // Page-cache frame accounting (driven by gpufs::PageCache)
    // ------------------------------------------------------------------

    /** The page cache this registry partitions has @p frames frames. */
    void attachCacheFrames(uint32_t frames) { cacheFrames_ = frames; }

    /** A frame became owned by a page of tenant @p id. */
    void noteFrameGained(TenantId id);

    /** A frame owned by tenant @p id was evicted/scrubbed/recycled. */
    void noteFrameLost(TenantId id);

    /** Frames currently charged to @p id. */
    uint64_t framesOf(TenantId id) const;

    /**
     * Weighted fair share of the attached cache:
     * frames * cacheWeight / sum(active cacheWeights). A zero-weight
     * or released tenant's share is 0 (all its frames are fair game).
     */
    uint64_t frameShare(TenantId id) const;

    /** True when @p id holds more frames than its fair share — the
     * eviction clock may take its frames on behalf of other tenants. */
    bool overShare(TenantId id) const;

  private:
    struct Slot
    {
        std::string name;
        std::string statPrefix;
        uint32_t cacheWeight = 0;
        uint32_t ioWeight = 0;
        uint64_t frames = 0;
        bool live = false;
    };

    const Slot* slotOf(TenantId id) const;

    std::vector<Slot> slots_;
    size_t active_ = 0;
    uint64_t totalCacheWeight_ = 0;
    uint32_t cacheFrames_ = 0;
};

} // namespace ap::tenant

#endif // AP_TENANT_TENANT_HH
