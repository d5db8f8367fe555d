/**
 * @file
 * The GPUfs page table: a single concurrent hash table in GPU global
 * memory indexing the pages of all files in the page cache (paper
 * section V, "Highly concurrent page cache"). Buckets hold a fixed
 * number of entries; insertions take a per-bucket lock, lookups are
 * lock-free, and per-page reference counts are updated with CAS so that
 * a page with refcount > 0 can never be evicted (the "active pages with
 * fixed mappings" guarantee of section III-B).
 */

#ifndef AP_GPUFS_PAGE_TABLE_HH
#define AP_GPUFS_PAGE_TABLE_HH

#include <vector>

#include "gpufs/config.hh"
#include "hostio/backing_store.hh"
#include "sim/sync.hh"
#include "sim/warp.hh"
#include "tenant/asid.hh"
#include "util/annotations.hh"
#include "util/rng.hh"

namespace ap::sim {
class Device;
} // namespace ap::sim

namespace ap::gpufs {

/**
 * Identifies one file page in the backing store, qualified by its
 * address space: the paper's "xAddress" at page granularity plus the
 * owning tenant's ASID, laid out as tenant/asid.hh defines. Two
 * tenants mapping the same file offset get distinct keys — and
 * therefore distinct TLB entries, page-table entries, and frames — so
 * tenant teardown can find exactly its own state and the eviction
 * clock can charge every frame to its owner.
 */
using PageKey = uint64_t;

/** Build a PageKey for @p asid's view of (@p f, @p page_no). */
constexpr PageKey
makePageKey(tenant::TenantId asid, hostio::FileId f, uint64_t page_no)
{
    return tenant::makeKey(asid, static_cast<uint32_t>(f), page_no);
}

/** Default-tenant PageKey (single-tenant workloads and tests). */
constexpr PageKey
makePageKey(hostio::FileId f, uint64_t page_no)
{
    return makePageKey(tenant::kDefaultTenant, f, page_no);
}

/** Owning tenant of a PageKey. */
constexpr tenant::TenantId
pageKeyAsid(PageKey k)
{
    return tenant::keyAsid(k);
}

/** File id component of a PageKey. */
constexpr hostio::FileId
pageKeyFile(PageKey k)
{
    return static_cast<hostio::FileId>(tenant::keyFile(k));
}

/** Page number component of a PageKey. */
constexpr uint64_t
pageKeyPageNo(PageKey k)
{
    return tenant::keyPageNo(k);
}

/** Page-table entry states. */
enum class PteState : uint32_t {
    Loading = 0, ///< frame allocated, data transfer in flight
    Ready = 1,   ///< data resident, mappings valid
    /**
     * The fill failed: the frame holds no valid data and must never be
     * linked against. Error entries are never dirty; at refcount 0
     * they are reclaimed eagerly by the next acquirer (re-faulting the
     * page from scratch) or lazily by the eviction sweeps.
     */
    Error = 2,
};

/**
 * One page-table entry as laid out in GPU memory (32 bytes; a bucket of
 * 8 entries is exactly two 128 B memory transactions).
 */
struct Pte
{
    /** key+1 so that 0 means an empty slot. */
    uint64_t taggedKey = 0;
    /** Page-cache frame holding the data. */
    uint32_t frame = 0;
    /** Linked references; -1 means claimed for eviction. */
    int32_t refcount = 0;
    /** PteState. */
    uint32_t state = 0;
    uint32_t pad0 = 0;
    uint64_t pad1 = 0;
};

static_assert(sizeof(Pte) == 32, "Pte layout must stay 32 bytes");

/**
 * The hash-table layout plus charged probe helpers. Eviction and
 * refcount policy live in PageCache; this class owns addressing, bucket
 * locks, and the lock-free probe.
 */
class PageTable
{
  public:
    /**
     * Allocate the table in device memory.
     * @param dev the device whose global memory hosts the table
     * @param cfg geometry
     */
    PageTable(sim::Device& dev, const Config& cfg);

    /** Number of buckets. */
    uint32_t numBuckets() const { return nBuckets; }

    /** Entries per bucket. */
    uint32_t bucketEntries() const { return entsPerBucket; }

    /** Home bucket of @p key. */
    uint32_t
    bucketOf(PageKey key) const
    {
        return static_cast<uint32_t>(hashMix64(key) % nBuckets);
    }

    /** Device address of entry @p slot of bucket @p b. */
    sim::Addr
    entryAddr(uint32_t b, uint32_t slot) const
    {
        return base + (static_cast<sim::Addr>(b) * entsPerBucket + slot) *
                          sizeof(Pte);
    }

    /** Entry index (for frame back-references). */
    uint32_t
    entryRef(uint32_t b, uint32_t slot) const
    {
        return b * entsPerBucket + slot;
    }

    /** Device address of entry with back-reference @p ref. */
    sim::Addr
    entryAddrOf(uint32_t ref) const
    {
        return base + static_cast<sim::Addr>(ref) * sizeof(Pte);
    }

    /** The insertion lock of bucket @p b. */
    sim::DeviceLock&
    bucketLock(uint32_t b) AP_LOCK_LEVEL("pt.bucket")
    {
        return locks[b];
    }

    /** Functional entry read (no timing). */
    Pte
    readEntry(sim::Warp& w, sim::Addr ea) const
    {
        return w.mem().load<Pte>(ea);
    }

    /** Functional entry write (no timing). */
    void
    writeEntry(sim::Warp& w, sim::Addr ea, const Pte& e) const
    {
        w.mem().store<Pte>(ea, e);
    }

    /** Device address of the refcount field of entry @p ea. */
    static sim::Addr
    refcountAddr(sim::Addr ea)
    {
        return ea + offsetof(Pte, refcount);
    }

    /** Device address of the state field of entry @p ea. */
    static sim::Addr
    stateAddr(sim::Addr ea)
    {
        return ea + offsetof(Pte, state);
    }

    /**
     * Lock-free probe of @p key's home bucket: charges one bucket read
     * (two 128 B transactions).
     * @return device address of the matching entry, or 0 if absent
     */
    sim::Addr
    probe(sim::Warp& w, PageKey key) const AP_NO_YIELD
    {
        uint32_t b = bucketOf(key);
        // Hash computation plus the scan. At 16x sizing the expected
        // number of slots examined before a hit or an empty slot is
        // barely above one, so the traffic charge is two entries.
        w.issue(4);
        w.chargeGlobalRead(2.0 * sizeof(Pte));
        // Lock-free by design (paper section V): concurrent bucket
        // writers are tolerated and every hit is re-validated by the
        // caller's CAS, so these reads are relaxed for the checker.
        sim::check::SimCheck::Relaxed relaxed;
        for (uint32_t s = 0; s < entsPerBucket; ++s) {
            sim::Addr ea = entryAddr(b, s);
            if (w.mem().load<uint64_t>(ea) == key + 1)
                return ea;
        }
        return 0;
    }

  private:
    sim::Addr base = 0;
    uint32_t nBuckets;
    uint32_t entsPerBucket;
    std::vector<sim::DeviceLock> locks;
};

} // namespace ap::gpufs

#endif // AP_GPUFS_PAGE_TABLE_HH
