/**
 * @file
 * The GPU page cache: frames in device memory, reference-counted page
 * acquisition with major/minor fault handling, clock eviction of
 * refcount-zero pages, and a staging area fed by batched host DMA.
 *
 * Invariant (paper section III-B, "active pages with fixed mappings"):
 * a page with refcount > 0 is never evicted, so any cached
 * avirtual-to-aphysical translation held by a linked apointer stays
 * valid for as long as the reference is held.
 */

#ifndef AP_GPUFS_PAGE_CACHE_HH
#define AP_GPUFS_PAGE_CACHE_HH

#include <array>
#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "gpufs/contig_profiler.hh"
#include "gpufs/page_table.hh"
#include "hostio/host_io_engine.hh"
#include "prefetch/stream_table.hh"
#include "sim/lifetime_ledger.hh"
#include "tenant/tenant.hh"
#include "util/annotations.hh"

namespace ap::gpufs {

/**
 * Why a resident page's frame was unbound — the telemetry taxonomy.
 * Every retired frame is charged to exactly one reason; a frame
 * retired with zero demand hits additionally counts dead-on-arrival
 * (pagecache.doa.<reason>) — for speculative victims that is the
 * readahead-thrash population, for clock victims wasted fill work.
 */
enum class PageEvictReason : uint8_t
{
    ClockSweep = 0,      ///< ordinary clock-hand victim
    ReserveRefill = 1,   ///< pre-evicted into the QoS reclaim reserve
    BucketOverflow = 2,  ///< displaced by a full page-table bucket
    PoisonedReclaim = 3, ///< Error entry reclaimed (failed fill)
    SpecVictim = 4,      ///< undemanded speculative page recycled
    CrossTenant = 5,     ///< claimed by another tenant's sweep (QoS)
    Teardown = 6,        ///< tenant teardown scrubbed the frame
};

/** Number of PageEvictReason values (table sizing). */
constexpr size_t kPageEvictReasons = 7;

/** Printable names, indexed by PageEvictReason. */
constexpr std::array<const char*, kPageEvictReasons> kPageEvictReasonNames{
    "clock_sweep",      "reserve_refill", "bucket_overflow",
    "poisoned_reclaim", "spec_victim",    "cross_tenant",
    "teardown"};

/** Result of acquiring a page. */
struct AcquireResult
{
    /** Device address of the page frame's first byte. */
    sim::Addr frameAddr = 0;
    /** Frame index. */
    uint32_t frame = 0;
    /** True if the data had to be fetched from the host. */
    bool majorFault = false;
    /**
     * Ok on success. On failure (a fill that could not be completed)
     * the acquire holds no references, frameAddr is 0, and the entry
     * is left in PteState::Error for eventual reclamation.
     */
    hostio::IoStatus status = hostio::IoStatus::Ok;
    /** True if this acquire consumed a speculative (readahead) fill. */
    bool specHit = false;

    /** True iff the page was acquired and references are held. */
    bool ok() const { return status == hostio::IoStatus::Ok; }
};

/**
 * Per-frame metadata, laid out in GPU memory. Maps a frame back to its
 * page-table entry for the eviction clock, and tracks dirtiness for
 * writeback.
 */
struct FrameMeta
{
    /** key+1 of the resident page; 0 when the frame is unused. */
    uint64_t taggedKey = 0;
    /** Back-reference: entry index in the page table. */
    uint32_t entryRef = 0;
    /** Bit 0: dirty. Bit 1: speculative fill, not yet demanded. */
    uint32_t flags = 0;
};

static_assert(sizeof(FrameMeta) == 16, "FrameMeta layout must stay 16 B");

/** FrameMeta::flags bit 1: filled speculatively, no demand touch yet. */
constexpr uint32_t kSpecFlag = 2u;

/** Outcome of a prefetchPage request (satellite: no silent drops). */
enum class PrefetchResult
{
    /** Asynchronous fill started; a later access takes a minor fault. */
    Started,
    /** Page already resident or loading — nothing to do. */
    Resident,
    /** No free frame: the request was dropped (counted). */
    NoFrame,
    /** Bucket full or insertion raced: dropped (counted). */
    NoEntry,
    /** The byte range cannot be read (bad file / beyond EOF). */
    BadRange,
};

/**
 * Custom page-fault interposition hooks (the paper's CryptFS use case:
 * "one can build an encrypted file system for GPUs by installing custom
 * page fault handlers for encrypting/decrypting file contents
 * on-the-fly"). Hooks transform page data in place and charge their own
 * simulated costs through the warp.
 */
struct PageHooks
{
    /** Runs on the fetching warp after page data lands in the frame. */
    std::function<void(sim::Warp&, PageKey, sim::Addr frame_addr,
                       size_t len)>
        postFetch;

    /**
     * Runs before a dirty frame is written back. The warp pointer is
     * null when invoked from the host-side flush.
     */
    std::function<void(sim::Warp*, PageKey, sim::Addr frame_addr,
                       size_t len)>
        preWriteback;
};

/**
 * The page cache. All device-side methods are warp-level: they are
 * called by the warp as a whole (in the apointer fault path, by the
 * subgroup leader on behalf of its lanes, with an aggregated count).
 */
class PageCache
{
  public:
    /**
     * @param dev    simulated GPU providing memory and timing
     * @param io     host I/O engine for major faults and writeback
     * @param cfg    geometry/policy
     */
    PageCache(sim::Device& dev, hostio::HostIoEngine& io, const Config& cfg);

    /** Geometry in force. */
    const Config& config() const { return cfg; }

    /** Device address of frame @p frame. */
    sim::Addr
    frameAddr(uint32_t frame) const
    {
        return framesBase + static_cast<sim::Addr>(frame) * kPageBytes;
    }

    /**
     * Acquire (f, page_no), taking @p count references. Handles minor
     * faults (page resident: refcount bump) and major faults (allocate
     * a frame, fetch from the host through the staging area). Blocks
     * the calling warp as required.
     *
     * @param w        calling warp (subgroup leader)
     * @param key      page identity
     * @param count    references to take (aggregated over the subgroup)
     * @param writable whether the mapping may be written (marks dirty)
     * @param zero_fill zero-fill-on-demand: a major fault produces a
     *                  zeroed frame with no host transfer (anonymous /
     *                  swap-backed mappings); evicted dirty pages still
     *                  write back to the backing file, and re-faults of
     *                  written-back pages read it normally
     */
    AcquireResult acquirePage(sim::Warp& w, PageKey key, int count,
                              bool writable, bool zero_fill = false)
        AP_LEADER_ONLY AP_YIELDS AP_ACQUIRES("pt.bucket")
        AP_ACQUIRES_REF("pc.page") AP_TRANSITIONS("Loading->Ready");

    /** Host-side: true if the page was ever written back (swap test). */
    bool
    everWrittenHost(PageKey key) const
    {
        return swappedOut.count(key) != 0;
    }

    /** Drop @p count references from (f, page_no). */
    void releasePage(sim::Warp& w, PageKey key, int count)
        AP_LEADER_ONLY AP_NO_YIELD AP_RELEASES_REF("pc.page");

    /**
     * Advisory prefetch (the gmadvise/WILLNEED path): if the page is
     * absent, allocate a frame, insert a Loading entry with zero
     * references, and start an asynchronous host transfer directly
     * into the frame — the calling warp does not block, and later
     * accesses take minor faults instead of majors. Incompatible with
     * a postFetch hook (no warp exists at completion time to charge).
     *
     * Never evicts: only free-pool frames are used, so advisory and
     * speculative traffic cannot displace resident pages. A request
     * that finds no frame (or no page-table slot) is dropped and
     * counted under `gpufs.prefetch_dropped`.
     *
     * @param speculative readahead-issued (vs. explicit gmadvise):
     *        tags the frame kSpecFlag so eviction prefers it while
     *        unused, the fill rides the low-priority DMA lane, and the
     *        page's fate feeds back into the readahead stream table
     */
    PrefetchResult prefetchPage(sim::Warp& w, PageKey key,
                                bool speculative = false)
        AP_LEADER_ONLY AP_ACQUIRES("pt.bucket")
        AP_TRANSITIONS("Absent->Loading", "Loading->Ready",
                       "Loading->Error");

    /**
     * Adaptive readahead (DESIGN.md section 11): a demand fault on
     * @p key, major or minor, was just serviced for the calling warp's
     * subgroup. Advances the stream table (two issued instructions)
     * and, when a stream crosses its marker, issues the throttled
     * chunk through prefetchPage(..., true). Does nothing while
     * readahead is off, and stands down under a postFetch hook:
     * speculative fills complete host-side, where no warp exists to
     * run it.
     */
    void readahead(sim::Warp& w, PageKey key) AP_LEADER_ONLY;

    /** The readahead stream table (tests and diagnostics). */
    const prefetch::StreamTable& streams() const { return streams_; }

    /** Host-mirrored count of free (never-evicting) frames. */
    size_t freeFrameCount() const { return freeFrames.size(); }

    /**
     * Host-side: write every dirty frame back to the backing store and
     * clear dirty bits. Functional only (no simulated time); used at
     * teardown and by tests.
     */
    void flushDirtyHost();

    /** Host-side: current refcount of a page, or -1 if not resident. */
    int32_t residentRefcountHost(PageKey key);

    /** The page table (exposed for tests and diagnostics). */
    PageTable& table() { return pt; }

    /**
     * simcheck identity of this cache's page domain. Never reused, so
     * invariant shadow state cannot alias across sequentially-created
     * caches in one process.
     */
    const uint64_t checkDomain = sim::check::SimCheck::nextId();

    /** Install page-fault interposition hooks (see PageHooks). */
    void setHooks(PageHooks h) { hooks = std::move(h); }

    /**
     * Attach a tenant registry, turning on QoS partitioning: every
     * frame is charged to the ASID of the page it holds (the pages
     * already resident included, counted host-side on attach), the
     * eviction clock refuses to take an under-share tenant's frame for
     * an over-share requester (see allocFrame), and fault stats fan
     * out into per-tenant `tenant.tN.*` groups. Null detaches; with no
     * registry the cache behaves exactly as before (single tenant,
     * byte-identical sweep decisions).
     */
    void setTenantRegistry(tenant::TenantRegistry* reg);

    /**
     * Host-side teardown of tenant @p asid's page-cache footprint: the
     * analog of process exit for an address space. Fails with Busy if
     * any of the tenant's pages still holds references or an in-flight
     * fill (quiesce first); otherwise writes back its dirty pages,
     * removes its page-table entries, returns its frames to the free
     * pool, un-charges the registry, and drops its swap residue. Runs
     * the simcheck tenant-residual audit afterwards, so an armed build
     * asserts nothing of the tenant survives.
     */
    tenant::TenantStatus teardownTenantHost(tenant::TenantId asid)
        AP_MUST_CHECK;

    /**
     * Host-side: rebuild the snapshot portion of the translation
     * telemetry in the device StatGroup — the contig.runs aggregate
     * and per-file run-length histograms plus residency scalars (see
     * ContigProfiler::exportSnapshot). Call before reading stats or
     * dumping them to JSON; the always-on counters and lifetime
     * histograms need no export step.
     */
    void exportTranslationStatsHost();

  private:
    /**
     * Host-side: read frame @p f's metadata into @p fm and, if it holds
     * a page, that page's entry into @p e.
     * @return the entry's address, or 0 if the frame holds no page or
     *         its entry no longer points back at it
     */
    sim::Addr residentEntryHost(uint32_t f, FrameMeta& fm, Pte& e);

    /**
     * Under a registry, count one @p kind fault ("minor_faults" or
     * "major_faults") and its @p cycles in @p key's tenant's
     * `tenant.tN.*` stats.
     */
    void noteTenantFault(PageKey key, const char* kind, sim::Cycles cycles);

    /** Obtain a free frame, evicting a refcount-zero page if needed. */
    uint32_t allocFrame(sim::Warp& w)
        AP_ACQUIRES("pc.alloc") AP_ACQUIRES("pt.bucket")
        AP_ACQUIRES("pc.reserve");

    /**
     * Obtain a frame from the free pool only — no clock sweep, no
     * eviction, no fatal. The advisory/speculative path uses this so
     * prefetch can never displace a resident page.
     * @return frame index, or UINT32_MAX if the pool is empty
     */
    uint32_t tryAllocFrame(sim::Warp& w) AP_ACQUIRES("pc.alloc");

    /**
     * A speculative page met its fate on a warp path or at teardown:
     * count the stat and feed the page's stream. @p hit distinguishes
     * demand consumption from unused eviction; @p late marks a hit
     * that arrived while still Loading.
     */
    void settleSpecPage(PageKey key, bool hit, bool late);

    /** Return a frame to the free pool (lost insertion race, or the
     * frame of a displaced or reclaimed entry). */
    void freeFrame(sim::Warp& w, uint32_t frame) AP_ACQUIRES("pc.alloc");

    /** Write a dirty frame's bytes back to its file. */
    void writeback(sim::Warp& w, PageKey key, uint32_t frame) AP_YIELDS;

    /** Host-side writeback (null-warp preWriteback hook, functional
     * copy, swap record); no simulated time. */
    void writebackHost(PageKey key, uint32_t frame);

    /** A page's bytes in its file: len is short for the last page and
     * 0 for a bad file or a page wholly beyond EOF. */
    struct PageSpan
    {
        hostio::FileId file;
        uint64_t off;
        size_t len;
    };
    PageSpan span(PageKey key) const;

    /** Zero the frame at @p fa past @p len (functional, uncharged). */
    void zeroTail(sim::Addr fa, size_t len) AP_NO_YIELD;

    /**
     * Fetch page data from the host into @p frame via staging.
     * @return Ok, or the terminal transfer status on failure (the
     *         staging slot is released either way)
     */
    hostio::IoStatus fetchPage(sim::Warp& w, PageKey key, uint32_t frame)
        AP_YIELDS AP_MUST_CHECK AP_BALANCED;

    /**
     * Publish a failed fill: clear the frame's dirty bit, mark the
     * entry PteState::Error (releasing the state word so spinning
     * minor faulters observe it), and drop this acquire's @p count
     * references.
     */
    void publishFillError(sim::Warp& w, PageKey key, sim::Addr ea,
                          uint32_t frame, int count)
        AP_NO_YIELD AP_RELEASES_REF("pc.page")
        AP_TRANSITIONS("Loading->Error");

    /**
     * Try to reclaim an Error entry found at @p ea during acquire:
     * claim it at refcount 0, remove it, and free its frame so the
     * caller can re-fault the page from scratch.
     * @return true if reclaimed (the caller should re-probe)
     */
    bool reclaimErrorEntry(sim::Warp& w, PageKey key, sim::Addr ea)
        AP_ACQUIRES("pt.bucket") AP_ACQUIRES("pc.alloc");

    uint32_t grabStagingSlot(sim::Warp& w)
        AP_YIELDS AP_ACQUIRES_REF("pc.staging");
    void releaseStagingSlot(sim::Warp& w, uint32_t slot)
        AP_NO_YIELD AP_RELEASES_REF("pc.staging");

    /**
     * Minor-fault refcount bump: CAS-add @p count to the refcount at
     * @p rca unless the entry is claimed (negative) or the spin budget
     * runs out. @return true iff the references were taken.
     */
    bool pteTryRefAdd(sim::Warp& w, sim::Addr rca, int count)
        AP_NO_YIELD AP_ACQUIRES_REF("pc.page");

    /**
     * Drop @p count references at @p rca (CAS loop; never drops below
     * zero — a concurrent eviction claim retries the CAS). @p why
     * tags the underflow assertion; simcheck refcount-adjust reports
     * stay at call sites, which know whether the references were ever
     * published (the minor-fault ABA undo drops unpublished ones).
     */
    void pteRefDrop(sim::Warp& w, sim::Addr rca, int count,
                    const char* why)
        AP_NO_YIELD AP_RELEASES_REF("pc.page");

    // ---- The page-entry lifecycle -----------------------------------
    // One helper per step, shared by every path (major fault, prefetch,
    // clock sweep, bucket overflow, poisoned reclaim, teardown): insert
    // Loading under the bucket lock, publish Ready or Error with a
    // release on the state word, claim at refcount 0 -> -1, remove.
    // Callers keep their own charges, locks and ABA tests.

    /** Scan locked bucket @p b (one charged read): true iff @p key is
     * present; else @p slot is the first empty slot or bucketEntries. */
    bool scanBucket(sim::Warp& w, uint32_t b, PageKey key, uint32_t& slot)
        AP_NO_YIELD;

    /** Insert @p key Loading at (@p b, @p slot) holding @p count refs
     * (0 for a prefetch) and bind @p frame with FrameMeta @p flags;
     * one charged write. @return the entry's address */
    sim::Addr insertLoading(sim::Warp& w, uint32_t b, uint32_t slot,
                            PageKey key, uint32_t frame, int count,
                            uint32_t flags)
        AP_NO_YIELD AP_ACQUIRES_REF("pc.page")
        AP_TRANSITIONS("Absent->Loading");

    /** Publish a fill as failed or complete: simcheck commit, release
     * on @p state_addr, relaxed store. @p warp is -1 host-side; warp
     * callers charge the 4 B store. */
    void publishError(sim::Addr state_addr, PageKey key, int warp,
                      sim::Cycles now)
        AP_NO_YIELD AP_TRANSITIONS("Loading->Error");
    void publishReady(sim::Addr state_addr, PageKey key, int warp,
                      sim::Cycles now)
        AP_NO_YIELD AP_TRANSITIONS("Loading->Ready");

    /** CAS @p ea's refcount 0 -> -1; on success @p cur is a relaxed
     * re-read for the caller's ABA test (a claimed entry is stable). */
    bool claimEntry(sim::Warp& w, sim::Addr ea, Pte& cur) AP_NO_YIELD;

    /** Undo a claim: relaxed store of refcount 0 (uncharged). */
    void unclaim(sim::Addr ea) AP_NO_YIELD;

    /** Clear the claimed entry at @p ea and @p frame's FrameMeta
     * (uncharged). @p warp is -1 for host teardown. */
    void removeEntry(sim::Addr ea, PageKey key, uint32_t frame, int warp,
                     sim::Cycles now) AP_NO_YIELD;

    sim::Addr metaAddr(uint32_t frame) const
    {
        return metaBase + static_cast<sim::Addr>(frame) * sizeof(FrameMeta);
    }

    /**
     * Frame-ownership accounting and telemetry: @p key's page now
     * occupies @p frame (charged to the registry, opens the frame's
     * lifetime record, extends the contiguity runs).
     */
    void noteFrameBound(PageKey key, uint32_t frame, sim::Cycles now);

    /**
     * Frame-ownership accounting and telemetry: @p key's page left
     * @p frame for @p reason (un-charges the registry, retires the
     * frame's ledger record plus pagecache.life.demand_hits, shrinks
     * the contiguity runs).
     */
    void noteFrameUnbound(PageKey key, uint32_t frame,
                          PageEvictReason reason, sim::Cycles now);

    /**
     * A demand touch was granted on @p frame (minor fault, or the
     * major-faulting warp's own first access): bumps the frame's
     * demand-hit count; the first hit records fill-to-first-hit.
     */
    void noteFrameDemandHit(uint32_t frame, sim::Cycles now);

    /**
     * Throttled Chrome-trace counter samples (free frames, reserve
     * depth, longest resident run) on the telemetry track; no-op
     * while tracing is off.
     */
    void maybeEmitCacheCounters(sim::Cycles now);

    sim::Device* dev;
    hostio::HostIoEngine* io;
    Config cfg;
    PageTable pt;
    PageHooks hooks;
    tenant::TenantRegistry* registry_ = nullptr;

    sim::Addr framesBase = 0;
    sim::Addr metaBase = 0;
    sim::Addr stagingBase = 0;

    /** Free-frame pool (device-side state mirrored host-side; pops and
     * pushes are charged as atomic pool operations). */
    std::vector<uint32_t> freeFrames;
    sim::DeviceLock allocLock{"pc.alloc"} AP_LOCK_LEVEL("pc.alloc");
    uint64_t clockHand = 0;

    /** QoS reclaim reserve (registry attached only): clean frames
     * pre-evicted by over-share sweepers, handed to under-share
     * tenants under an O(1) lock so their demand misses are never
     * serialized behind a whole-revolution clock sweep holding
     * allocLock. Never touched on the single-tenant path. */
    std::vector<uint32_t> reserveFrames;
    sim::DeviceLock reserveLock{"pc.reserve"} AP_LOCK_LEVEL("pc.reserve");
    static constexpr size_t kReserveTarget = 8;

    /** simcheck serial for the per-slot staging handoff channels. */
    const uint64_t checkStagingSerial = sim::check::SimCheck::nextId();

    /** Staging-slot pool with a waiter queue. */
    std::vector<uint32_t> freeStaging;
    std::deque<sim::Fiber*> stagingWaiters;
    std::deque<uint32_t> stagingHandoff;

    /** Zero-fill pages that have been written back at least once: a
     * re-fault must read the swap contents, not zero-fill again. */
    std::set<PageKey> swappedOut;

    /** Per-frame lifetimes (host bookkeeping, not device memory:
     * FrameMeta stays 16 B); a hit is a demand touch. */
    sim::LifetimeLedger<PageEvictReason, kPageEvictReasons> life;

    /** Resident-contiguity profiler fed by bind/unbind. */
    ContigProfiler contigProf;

    /** Readahead streams: advanced by readahead(), fed each
     * speculative page's fate by settleSpecPage and fill errors. */
    prefetch::StreamTable streams_;
};

} // namespace ap::gpufs

#endif // AP_GPUFS_PAGE_CACHE_HH
