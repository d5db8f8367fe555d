/**
 * @file
 * The per-threadblock software TLB (paper sections III-E and IV-D): a
 * direct-mapped concurrent hash table living in scratchpad memory. In
 * addition to cached mappings it keeps a *threadblock-private*
 * reference count per page and acts as a reference-count aggregator
 * (like sloppy counters), so repeated faults on a hot page never touch
 * the global page table.
 *
 * Complications faithfully modeled (section III-E):
 *  - an entry with a nonzero count cannot be evicted on conflict
 *    (the count would be lost); conflicting pages bypass the TLB and
 *    update the page table directly,
 *  - when a count drops to zero the cached mapping is discarded and the
 *    page-table references are returned, keeping refcounts exact.
 */

#ifndef AP_CORE_TLB_HH
#define AP_CORE_TLB_HH

#include <array>
#include <vector>

#include "core/access_mode.hh"
#include "gpufs/page_cache.hh"
#include "sim/lifetime_ledger.hh"
#include "sim/sync.hh"
#include "util/annotations.hh"

namespace ap::sim {
class Device;
} // namespace ap::sim

namespace ap::core {

/**
 * Why a cached translation left the TLB — the telemetry taxonomy.
 * Every retired entry is charged to exactly one reason; an entry
 * retired with zero hits is additionally counted dead-on-arrival
 * (tlb.doa.<reason>), the population the range-TLB work needs sized.
 */
enum class TlbEvictReason : uint8_t
{
    Conflict = 0,     ///< displaced by a conflicting count-zero install
    Invalidation = 1, ///< count dropped to zero; mapping discarded
    Teardown = 2,     ///< TLB destroyed at launch end with the entry live
};

/** Number of TlbEvictReason values (table sizing). */
constexpr size_t kTlbEvictReasons = 3;

/** Printable names, indexed by TlbEvictReason. */
constexpr std::array<const char*, kTlbEvictReasons> kTlbEvictReasonNames{
    "conflict", "invalidation", "teardown"};

/** The software TLB of one threadblock. */
class SoftTlb
{
  public:
    /**
     * Reserve scratchpad space and build the table.
     * @param tb       owning threadblock (scratchpad accounting)
     * @param n_entries table size (direct-mapped)
     * @param kind     apointer kind (entry size: 12 B short, 20 B long,
     *                 plus a 4 B lock each, per paper section IV-D)
     * @param lock_latency cost of an entry-lock operation
     * @param dev      device whose stats/clock the destructor uses to
     *                 retire entries still live at launch end
     */
    SoftTlb(sim::ThreadBlock& tb, uint32_t n_entries, AptrKind kind,
            sim::Cycles lock_latency, sim::Device& dev);

    /**
     * Retire any still-live entries as Teardown evictions and, under
     * simcheck, audit that the per-entry hit counts sum to the hits
     * this TLB put into core.tlb_hits.
     */
    ~SoftTlb();

    /**
     * Probe for @p key and, on a hit, add @p n to the block-private
     * count — no page-table access at all, the TLB's whole purpose.
     *
     * @param[out] frame_addr frame address of the cached mapping
     * @return true on hit
     */
    bool lookupAndRef(sim::Warp& w, gpufs::PageKey key, int n,
                      sim::Addr& frame_addr)
        AP_LEADER_ONLY AP_ACQUIRES("tlb.entry");

    /**
     * After the caller acquired @p n page-table references for @p key,
     * try to install/merge the mapping.
     *
     * @return true if the TLB absorbed the references (unlink must go
     *         through unref()); false if the slot conflicts with a
     *         counted entry and the references stay direct
     */
    bool insertAfterAcquire(sim::Warp& w, gpufs::PageKey key,
                            sim::Addr frame_addr, int n,
                            gpufs::PageCache& cache)
        AP_LEADER_ONLY AP_ACQUIRES("tlb.entry");

    /**
     * Return @p n block-private references for @p key. When the count
     * reaches zero, the held page-table references are released and
     * the mapping is discarded.
     *
     * @return true if the TLB accounted the unref (it must, when the
     *         references were taken via the TLB)
     */
    bool unref(sim::Warp& w, gpufs::PageKey key, int n,
               gpufs::PageCache& cache)
        AP_LEADER_ONLY AP_ACQUIRES("tlb.entry");

    /** Number of entries. */
    uint32_t size() const { return nEntries; }

    /** Host-side: block-private count of @p key (tests). */
    int countOfHost(gpufs::PageKey key) const;

  private:
    struct Entry
    {
        Entry(uint32_t slot, sim::Cycles lock_latency)
            : entryLock("tlb.entry", slot, lock_latency)
        {
        }

        gpufs::PageKey key = 0;  ///< key+1; 0 = empty
        sim::Addr frameAddr = 0;
        int count = 0;   ///< block-private references
        int ptRefs = 0;  ///< page-table references held on behalf
        sim::DeviceLock entryLock AP_LOCK_LEVEL("tlb.entry");
    };

    uint32_t slotOf(gpufs::PageKey key) const;

    /**
     * Retire slot @p slot's lifetime for @p reason at @p now: the
     * ledger's counters, the retired entry's hits into
     * tlb.entry_hits_retired, and an occupancy sample. Call with the
     * entry lock held (or from the single-threaded destructor),
     * before the caller clears the key. Panics if the slot's install
     * never opened a ledger record.
     */
    void retire(StatGroup& st, uint32_t slot, TlbEvictReason reason,
                sim::Cycles now);

    /**
     * Throttled Chrome-trace occupancy sample (tlb.occupancy.blk<id>
     * on the telemetry track); no-op while tracing is off.
     */
    void maybeEmitOccupancy(sim::Cycles now);

    uint32_t nEntries;
    std::vector<Entry> entries;

    sim::Device& dev;           ///< teardown stats/clock/trace source
    std::string name;           ///< "tlb[blk<id>]" for diagnostics
    std::string occSeries;      ///< trace counter-series name
    /** Per-entry lifetimes: host bookkeeping, not scratchpad bytes
     * (the paper's 12/20+4 B per-entry accounting is unchanged). */
    sim::LifetimeLedger<TlbEvictReason, kTlbEvictReasons> life;
    uint64_t localHits = 0;     ///< hits this TLB added to core.tlb_hits
};

} // namespace ap::core

#endif // AP_CORE_TLB_HH
