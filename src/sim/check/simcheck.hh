/**
 * @file
 * SimCheck: an opt-in dynamic analysis layer over the simulated GPU
 * concurrency substrate. Three analyses share one happens-before
 * engine:
 *
 *  1. a vector-clock data-race detector over simulated global-memory
 *     (and virtualized scratchpad) bytes, with clocks advanced by
 *     DeviceLock acquire/release, warp atomics, block barriers, event
 *     scheduling edges, and DMA completions;
 *  2. a lock-order-graph deadlock detector over every DeviceLock in
 *     the process, reporting cycles with acquisition provenance
 *     (warp id, simulated cycle), and any nesting of two classes
 *     that contradicts the declared order ap::kLockOrder;
 *  3. an invariant auditor for the paper's correctness properties:
 *     page refcounts never go below the claimed -1 writeback state,
 *     pages with live references or linked apointers are never
 *     evicted, and page-table entries only take legal PteState edges.
 *
 * Checks that live beside their state (FaultPath's stage chains) file
 * their findings through report().
 *
 * The checker is always compiled (it has no dependencies) and gated at
 * runtime: SimCheck::armed is false by default, so instrumentation in
 * the hot paths costs one predictable branch. It turns on when
 *  - the environment sets AP_SIMCHECK=1 (any build), or
 *  - a test calls SimCheck::get().setEnabled(true).
 *
 * Deliberately unsynchronized accesses (the page table's lock-free
 * probe, refcount spin loops, ABA re-checks) are wrapped in
 * SimCheck::Relaxed scopes — the moral equivalent of
 * memory_order_relaxed for ThreadSanitizer — so the paper's
 * lock-free-read design does not drown the detector in benign reports.
 *
 * The whole simulation is single-threaded (fibers), so SimCheck needs
 * no synchronization of its own; "concurrency" here is simulated
 * concurrency, which is exactly what the paper's invariants govern.
 */

#ifndef AP_SIM_CHECK_SIMCHECK_HH
#define AP_SIM_CHECK_SIMCHECK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/check/report.hh"
#include "sim/check/vclock.hh"

namespace ap::sim {
class Fiber;
} // namespace ap::sim

namespace ap::sim::check {

/** The process-wide checker. Obtain via SimCheck::get(). */
class SimCheck
{
  public:
    /** Fast gate consulted by every instrumentation point. */
    static inline bool armed = false;

    /** The singleton (constructed on first use; reads AP_SIMCHECK). */
    static SimCheck& get();

    /** Unique, never-reused id for locks/memories/domains/TLBs. */
    static uint64_t nextId();

    /** Turn the analyses on or off (updates the armed gate). */
    void setEnabled(bool on);

    /** True when the analyses are running. */
    bool enabled() const { return enabled_; }

    /**
     * When true (the default when AP_SIMCHECK=1 arms the checker),
     * any report panics so a whole test suite run enforces "zero
     * reports". Negative tests for the checker itself set this to
     * false and inspect reports().
     */
    void setFailOnReport(bool on) { failOnReport_ = on; }

    /** Drop all shadow state, actors, graphs, and reports. */
    void reset();

    /** Source of simulated time for diagnostics (set by Device). */
    void setTimeSource(std::function<double()> fn) { now_ = std::move(fn); }

    // ------------------------------------------------------------------
    // Actors
    // ------------------------------------------------------------------

    /** Actor id 0: host-side code (setup, DMA completions, tests). */
    static constexpr int kHostActor = 0;

    /** Register (or re-register) a fiber as a fresh actor. */
    int registerFiber(const void* fiber, std::string label);

    /** Actor executing right now (host when outside any fiber). */
    int currentActor();

    /** Printable name of @p actor. */
    const std::string& actorName(int actor) const;

    // ------------------------------------------------------------------
    // Happens-before edges
    // ------------------------------------------------------------------

    /** Join channel @p chan into the current actor (acquire side). */
    void syncAcquire(uint64_t chan);

    /** Release the current actor's clock into channel @p chan. */
    void syncRelease(uint64_t chan);

    /** Acquire + release on @p chan (atomic read-modify-write). */
    void syncRmw(uint64_t chan);

    /** Scheduling edge: current actor releases toward @p fiber. */
    void edgeToFiber(const void* fiber);

    /** @p fiber is about to run: join its pending scheduling edges. */
    void fiberResuming(const void* fiber);

    /** Engine::schedule from an actor: release into the host channel. */
    void hostRelease();

    /** A host-context event is about to run: join the host channel. */
    void hostJoin();

    /** Sync-channel id for an atomic word in memory @p mem. */
    static uint64_t
    atomicChan(uint32_t mem, uint64_t addr)
    {
        return (1ULL << 63) |
               ((static_cast<uint64_t>(mem) << 40) ^ addr);
    }

    /** Sync-channel id derived from an object serial and a tag. */
    static uint64_t
    objChan(uint64_t serial, uint32_t tag)
    {
        return (1ULL << 62) | (serial << 8) | tag;
    }

    // ------------------------------------------------------------------
    // Data-race detection
    // ------------------------------------------------------------------

    /** Record a read of [addr, addr+len) in memory instance @p mem. */
    void onRead(uint32_t mem, uint64_t addr, size_t len);

    /** Record a write of [addr, addr+len) in memory instance @p mem. */
    void onWrite(uint32_t mem, uint64_t addr, size_t len);

    /**
     * Scope marking accesses as intentionally unsynchronized (lock-free
     * probes, spin re-checks): they are neither checked nor recorded.
     * The depth is tracked per actor, so a scope held across a fiber
     * yield never leaks onto whichever warp runs next.
     */
    struct Relaxed
    {
        Relaxed() { if (active) get().relaxedEnter(); }
        ~Relaxed() { if (active) get().relaxedExit(); }
        Relaxed(const Relaxed&) = delete;
        Relaxed& operator=(const Relaxed&) = delete;

      private:
        bool active = armed;
    };

    // ------------------------------------------------------------------
    // Lock-order graph
    // ------------------------------------------------------------------

    /**
     * Current actor acquired @p lock, lock @p index of class
     * @p lock_class (a string literal), blocking or try succeeded.
     * Nesting it inside a held lock whose class ap::kLockOrder ranks
     * later is a LockOrder report.
     */
    void onLockAcquired(uint64_t lock, const char* lock_class,
                        uint32_t index, int warp, double cycle);

    /** Current actor released @p lock. */
    void onLockReleased(uint64_t lock);

    // ------------------------------------------------------------------
    // Invariant auditor (page-cache domains)
    // ------------------------------------------------------------------

    /** New page-table entry for @p key: state Loading, refcount @p rc. */
    void pcInsert(uint64_t dom, uint64_t key, int64_t rc, int warp,
                  double cycle, uint16_t tenant = 0);

    /** Entry for @p key published Ready (legal only from Loading). */
    void pcReady(uint64_t dom, uint64_t key, int warp, double cycle);

    /**
     * Fill failure: entry for @p key published Error (legal only from
     * Loading). An Error entry behaves like a never-dirty Ready entry
     * for eviction purposes but must never be linked against.
     */
    void pcFillError(uint64_t dom, uint64_t key, int warp, double cycle);

    /** Refcount change by @p delta (minor fault +n / release -n). */
    void pcRefAdjust(uint64_t dom, uint64_t key, int64_t delta, int warp,
                     double cycle, uint16_t tenant = 0);

    /** Eviction claim: refcount 0 -> -1 (legal from Ready or Error). */
    void pcClaim(uint64_t dom, uint64_t key, int warp, double cycle);

    /** Claim undone: refcount -1 -> 0. */
    void pcUnclaim(uint64_t dom, uint64_t key, int warp, double cycle);

    /** Entry removed after eviction (must be claimed, no live links). */
    void pcRemove(uint64_t dom, uint64_t key, int warp, double cycle);

    /**
     * The entry for @p key was filled speculatively (readahead): legal
     * only on a Loading entry with refcount 0. Until pcSpecDemand
     * clears the mark, the page must take no references and no
     * apointer links — a translation cached against a page no demand
     * fault ever claimed would dangle invisibly.
     */
    void pcSpeculate(uint64_t dom, uint64_t key, int warp, double cycle);

    /**
     * A demand fault consumed the speculative page (the kSpecFlag
     * clear): legal only while the speculative mark is set.
     */
    void pcSpecDemand(uint64_t dom, uint64_t key, int warp, double cycle);

    /** @p n apointer lanes linked against @p key's frame. */
    void pcLink(uint64_t dom, uint64_t key, int64_t n, int warp,
                double cycle, uint16_t tenant = 0);

    /** @p n apointer lanes unlinked from @p key's frame. */
    void pcUnlink(uint64_t dom, uint64_t key, int64_t n, int warp,
                  double cycle);

    // ------------------------------------------------------------------
    // Tenant-isolation auditor
    // ------------------------------------------------------------------
    //
    // pcInsert (rc > 0), pcRefAdjust (delta > 0) and pcLink take the
    // acting warp's tenant (0 when unbound) and flag a page keyed to
    // any other ASID: a cross-tenant mapping defeats address-space
    // isolation. Evictions (pcClaim/pcRemove) are exempt: reclaiming
    // another tenant's cold frame is legal sharing of the cache.

    /**
     * Tenant @p asid was torn down in domain @p dom: audit that no
     * tracked page keyed to that ASID survives. A residual entry means
     * teardown left stale page-cache state behind, which a later
     * tenant reusing the ASID could alias.
     */
    void pcTeardownTenant(uint64_t dom, uint16_t asid, double cycle);

    /**
     * Quiescence audit: every tracked page must have refcount 0 and no
     * live links. Call after all references should have been returned;
     * anything still held is reported as a leak.
     */
    void auditLeaks();

    /**
     * No-warp-permanently-blocked auditor: a kernel launch drained its
     * event queue with @p who still blocked (typically a warp waiting
     * on an I/O completion that will never arrive — exactly what the
     * failure paths must prevent). Called by Device::launch for each
     * unfinished warp before it panics.
     */
    void reportHang(const std::string& who);

    /**
     * TLB telemetry cross-check, run by each SoftTlb destructor: the
     * per-entry hit counts accumulated by the telemetry layer
     * (@p entry_hits, live + retired) must equal the hits the same TLB
     * contributed to the core.tlb_hits counter (@p counter_hits). A
     * mismatch means the telemetry lost or double-counted an entry —
     * reported as an Invariant violation naming @p who.
     */
    void tlbHitSumAudit(uint64_t entry_hits, uint64_t counter_hits,
                        const std::string& who);

    // ------------------------------------------------------------------
    // Reports
    // ------------------------------------------------------------------

    /** All reports since the last reset/clearReports. */
    const std::vector<Report>& reports() const { return reports_; }

    /** Number of reports of kind @p k. */
    size_t count(ReportKind k) const;

    /** True if some report of kind @p k mentions @p needle. */
    bool hasReport(ReportKind k, const std::string& needle) const;

    /** Drop collected reports (shadow state survives). */
    void clearReports();

    /**
     * File a report of kind @p kind, once per @p dedup key: warn, keep
     * it for reports(), and panic under fail-on-report.
     */
    void report(ReportKind kind, const std::string& dedup,
                const std::string& msg);

  private:
    SimCheck();

    // --- shared plumbing ---------------------------------------------
    VClock& actorClock(int actor);
    uint64_t epochNow(int actor);
    void bumpClock(int actor);
    void relaxedEnter();
    void relaxedExit();
    bool relaxedHere();
    double nowCycles() const { return now_ ? now_() : 0.0; }

    // --- race detector internals -------------------------------------
    /** One byte-masked access epoch within an 8-byte granule. */
    struct AccessRec
    {
        Epoch e;
        uint8_t mask = 0;
    };

    struct Shadow
    {
        std::vector<AccessRec> writes;
        std::vector<AccessRec> reads;
    };

    void onAccess(uint32_t mem, uint64_t addr, size_t len, bool isWrite);
    void granuleAccess(uint32_t mem, uint64_t gaddr, uint8_t mask,
                       bool isWrite, int actor);
    void raceReport(uint32_t mem, uint64_t gaddr, uint8_t mask,
                    bool isWrite, int actor, const AccessRec& prior,
                    bool priorWrite);

    // --- lock-order internals ----------------------------------------
    /** A lock's declared class and index: its name, formatted only
     * when a report needs it. */
    struct LockTag
    {
        const char* cls;
        uint32_t index;
    };

    struct HeldLock
    {
        uint64_t id;
        const char* cls;
        int rank; ///< position of cls in ap::kLockOrder, or -1
        int warp;
        double cycle;
    };

    struct LockEdge
    {
        int warp;         ///< warp that exhibited the nesting
        double fromCycle; ///< acquisition cycle of the outer lock
        double toCycle;   ///< acquisition cycle of the inner lock
    };

    bool findLockPath(uint64_t from, uint64_t to,
                      std::vector<uint64_t>& path,
                      std::unordered_set<uint64_t>& seen);
    std::string lockName(uint64_t id) const;

    // --- invariant internals -----------------------------------------
    struct PageShadow
    {
        enum State { Loading, Ready, Claimed, Error };
        int64_t rc = 0;
        int64_t links = 0;
        State st = Loading;
        bool spec = false; ///< speculative fill, not yet demanded
    };

    struct PageId
    {
        uint64_t dom;
        uint64_t key;
        bool operator==(const PageId& o) const
        {
            return dom == o.dom && key == o.key;
        }
    };

    struct PageIdHash
    {
        size_t operator()(const PageId& p) const
        {
            return std::hash<uint64_t>{}(p.dom * 0x9E3779B97F4A7C15ULL ^
                                         p.key);
        }
    };

    PageShadow* pageShadow(uint64_t dom, uint64_t key);
    static std::string pageName(uint64_t dom, uint64_t key);
    /** Flag @p what if @p tenant (acting as @p warp) is not @p key's. */
    void auditTenant(uint64_t dom, uint64_t key, int warp, uint16_t tenant,
                     const char* what);
    /** Report unless from->to is an edge of ap::kPteStateMachine. */
    void auditEdge(uint64_t dom, uint64_t key, const char* from,
                   const char* to);

    // --- state --------------------------------------------------------
    bool enabled_ = false;
    bool failOnReport_ = false;
    std::unordered_map<int, int> relaxedDepth; ///< per-actor nesting
    std::function<double()> now_;

    std::vector<VClock> clocks;            ///< per-actor vector clocks
    std::vector<std::string> actorNames_;  ///< per-actor labels
    std::unordered_map<const void*, int> fiberActors;
    const void* lastFiber = nullptr; ///< one-entry currentActor cache
    int lastActor = kHostActor;

    std::unordered_map<uint64_t, VClock> channels; ///< sync channels
    std::unordered_map<const void*, VClock> fiberChannels;
    VClock hostChannel;

    std::unordered_map<uint64_t, Shadow> shadow;

    std::unordered_map<int, std::vector<HeldLock>> held;
    std::unordered_map<uint64_t, LockTag> lockTags;
    std::unordered_map<uint64_t, std::unordered_map<uint64_t, LockEdge>>
        lockGraph;

    std::unordered_map<PageId, PageShadow, PageIdHash> pages;

    std::vector<Report> reports_;
    std::unordered_set<std::string> dedup;

    friend struct Relaxed;
};

} // namespace ap::sim::check

#endif // AP_SIM_CHECK_SIMCHECK_HH
