/**
 * @file
 * ActivePointers: the paper's primary contribution. An AptrVec<T> is a
 * warp's worth of per-thread apointers (one per lane, lockstep), each
 * carrying a 64-bit translation field that would live in a hardware
 * register on a real GPU. Dereferencing a linked apointer is
 * page-fault free and needs no table lookup; unlinked apointers fault
 * into the GPU-resident handler, which performs warp-level translation
 * aggregation (paper Listing 1): subgroups of lanes faulting on the
 * same page elect a leader via ballot/ffs/shfl, the leader alone
 * touches the shared page cache (deadlock freedom), and the page
 * reference count is bumped once by the subgroup size.
 *
 * State machine (paper Figure 4): uninitialized -> unlinked (gvmmap or
 * assignment) -> linked (first access) -> unlinked (pointer arithmetic
 * crossing a page boundary, assignment, destruction).
 */

#ifndef AP_CORE_APTR_HH
#define AP_CORE_APTR_HH

#include "core/runtime.hh"
#include "core/translation.hh"
#include "sim/faultpath.hh"
#include "util/annotations.hh"

namespace ap::core {

/**
 * A warp-wide vector of active pointers to elements of type T. All
 * methods must be called by the warp as a whole (lockstep), mirroring
 * how per-thread apointer code executes on real SIMT hardware.
 */
template <typename T>
class AptrVec
{
  public:
    /** Creates an uninitialized apointer (paper Figure 4). */
    AptrVec() = default;

    /**
     * gvmmap: map @p length bytes of file @p f starting at @p f_offset
     * into avirtual memory and return an unlinked apointer to the
     * start of the region, in every lane.
     *
     * @param w        calling warp
     * @param rt       translation-layer runtime
     * @param f        backing file
     * @param f_offset byte offset of the mapping within the file
     * @param length   mapping length in bytes
     * @param perm     kPermRead / kPermWrite combination
     */
    static AptrVec
    map(sim::Warp& w, GvmRuntime& rt, hostio::FileId f, uint64_t f_offset,
        uint64_t length, uint64_t perm) AP_LOCKSTEP
    {
        AP_ASSERT(length > 0, "gvmmap of empty region");
        if (f < 0) {
            // gvmmap of a nonexistent file (gopen returned -1): an
            // errored apointer instead of undefined behavior. Every
            // lane reads zeros, writes are dropped, and status()
            // reports the reason.
            AptrVec p;
            p.rt_ = &rt;
            p.asid_ = w.tenant();
            p.mapOffset = f_offset;
            p.mapLength = length;
            p.perm = perm;
            p.status_ = hostio::IoStatus::BadFile;
            p.errored_ = sim::kFullMask;
            w.issue(6);
            w.stats().inc("core.gvmmap_errors");
            return p;
        }
        if (rt.config().kind == AptrKind::Short) {
            // Short apointers reach 2^28 file pages (section IV-B).
            AP_ASSERT(fitsBits((f_offset + length - 1) / kPage,
                               kShortXpageWidth),
                      "file too large for short apointers");
        } else {
            AP_ASSERT(fitsBits(f_offset + length - 1, kLongPayloadWidth),
                      "file too large for long apointers");
        }

        AptrVec p;
        p.rt_ = &rt;
        p.file = f;
        // The mapping belongs to the address space of the warp that
        // created it; the ASID rides in every key and translation the
        // apointer produces from here on.
        p.asid_ = w.tenant();
        p.mapOffset = f_offset;
        p.mapLength = length;
        p.perm = perm;
        for (int l = 0; l < sim::kWarpSize; ++l)
            p.field[l] = p.packUnlinked(f_offset);
        // gvmmap itself: argument marshalling and field construction.
        w.issue(6);
        w.stats().inc("core.gvmmaps");
        return p;
    }

    /**
     * Map an anonymous, swap-backed region: pages are zero-filled on
     * first touch with no host transfer, and dirty pages spill to the
     * runtime's swap file under memory pressure — scratch memory
     * larger than the page cache (and than GPU memory), paged on
     * demand.
     *
     * @param w      calling warp
     * @param rt     translation-layer runtime (owns the swap file)
     * @param length region length in bytes
     */
    static AptrVec
    mapAnonymous(sim::Warp& w, GvmRuntime& rt, uint64_t length) AP_LOCKSTEP
    {
        uint64_t off = rt.swapAlloc(length);
        AptrVec p = map(w, rt, rt.swapFileId(), off, length,
                        kPermRead | kPermWrite);
        p.zeroFill = true;
        return p;
    }

    /**
     * Map a raw region of GPU global memory (no file, no page cache).
     * This is the setup of the paper's section VI-A/B microbenchmarks:
     * "apointers initialized to map a region in the GPU global memory
     * ... calls to the GPUfs layer are excluded". Faults still run the
     * full aggregation and translation logic, but resolve to
     * base + page * kPageBytes with no reference counting.
     */
    static AptrVec
    mapDirect(sim::Warp& w, GvmRuntime& rt, sim::Addr base,
              uint64_t length, uint64_t perm) AP_LOCKSTEP
    {
        AP_ASSERT(base % kPage == 0,
                  "direct mapping must be page aligned");
        AptrVec p;
        p.rt_ = &rt;
        p.file = kDirectFile;
        p.asid_ = w.tenant();
        p.directBase = base;
        p.mapOffset = 0;
        p.mapLength = length;
        p.perm = perm;
        for (int l = 0; l < sim::kWarpSize; ++l)
            p.field[l] = p.packUnlinked(0);
        w.issue(6);
        return p;
    }

    /** True once map()/assignment initialized this apointer. */
    bool initialized() const { return rt_ != nullptr; }

    /**
     * Sticky errno-style status: Ok, or the reason the first failed
     * fault (or gvmmap itself) could not complete. A non-Ok status
     * means some lanes are errored: they read zeros and drop writes
     * instead of wedging the warp in the fault loop.
     */
    hostio::IoStatus status() const AP_MUST_CHECK { return status_; }

    /** Lanes whose last fault failed (see status()). */
    sim::LaneMask erroredLanes() const { return errored_; }

    /**
     * Clear the sticky error. Errored lanes return to the unlinked
     * state at their current positions, so the next dereference
     * retries the fault (useful after a transient failure or after
     * the poisoned page has been reclaimed).
     */
    void
    clearError()
    {
        status_ = hostio::IoStatus::Ok;
        errored_ = 0;
    }

    /** True iff lane @p lane holds a valid translation. */
    bool linked(int lane) const { return translationValid(field[lane]); }

    /** Current file byte offset lane @p lane points at. */
    uint64_t
    fileOffset(int lane) const
    {
        const uint64_t t = field[lane];
        if (rt_->config().kind == AptrKind::Short)
            return shortXpage(t) * kPage + shortOff(t);
        if (translationValid(t))
            return curXpage[lane] * kPage + longPayload(t) % kPage;
        return longPayload(t);
    }

    /**
     * Pointer arithmetic: advance every lane by @p delta elements
     * (ptr += delta). Lanes that stay within their page remain linked;
     * lanes that cross a page boundary transition to unlinked and
     * return their page references (paper Figure 4).
     */
    void
    add(sim::Warp& w, int64_t delta) AP_LOCKSTEP
    {
        addBytes(w, sim::LaneArray<int64_t>::broadcast(
                        delta * static_cast<int64_t>(sizeof(T))),
                 sim::kFullMask);
    }

    /** Per-lane pointer arithmetic (in elements). */
    void
    addPerLane(sim::Warp& w, const sim::LaneArray<int64_t>& delta,
               sim::LaneMask mask = sim::kFullMask) AP_LOCKSTEP
    {
        sim::LaneArray<int64_t> bytes;
        for (int l = 0; l < sim::kWarpSize; ++l)
            bytes[l] = delta[l] * static_cast<int64_t>(sizeof(T));
        addBytes(w, bytes, mask);
    }

    /**
     * Assignment semantics: the copy starts unlinked at the same
     * positions and holds no references ("an apointer transitions to
     * the unlinked state when it is assigned from another apointer").
     */
    AptrVec
    copyUnlinked(sim::Warp& w) const AP_LOCKSTEP
    {
        AptrVec p;
        p.rt_ = rt_;
        p.file = file;
        p.asid_ = asid_;
        p.directBase = directBase;
        p.zeroFill = zeroFill;
        p.mapOffset = mapOffset;
        p.mapLength = mapLength;
        p.perm = perm;
        for (int l = 0; l < sim::kWarpSize; ++l)
            p.field[l] = p.packUnlinked(fileOffset(l));
        w.issue(4);
        return p;
    }

    /**
     * End of scope: unlink every lane (releasing references) and
     * return to the uninitialized state. Must be called before the
     * apointer is abandoned; ScopedAptr automates this.
     */
    void
    destroy(sim::Warp& w) AP_LOCKSTEP
    {
        if (!initialized())
            return;
        sim::LaneMask linked_lanes = 0;
        for (int l = 0; l < sim::kWarpSize; ++l)
            if (translationValid(field[l]))
                linked_lanes |= 1u << l;
        if (linked_lanes)
            releaseLanes(w, linked_lanes);
        rt_ = nullptr;
        file = -1;
        field = {};
        status_ = hostio::IoStatus::Ok;
        errored_ = 0;
    }

    /**
     * Dereference for read: *ptr on every lane in @p mask. Lanes with
     * valid translations never diverge; any invalid lane routes the
     * warp through the aggregated fault handler first.
     */
    sim::LaneArray<T>
    read(sim::Warp& w, sim::LaneMask mask = sim::kFullMask)
        AP_LOCKSTEP AP_YIELDS
    {
        AP_ASSERT(initialized(), "dereference of uninitialized apointer");
        const AptrCosts& c = rt_->costs();
        if (rt_->config().permChecks)
            checkPerm(w, kPermRead);
        w.issue(c.derefSetup);

        if (rt_->config().mode == AccessMode::Prefetch) {
            // Speculative prefetch (section IV-B): issue the load for
            // currently-linked lanes in parallel with the valid vote.
            sim::LaneMask valid_mask = validMask() & mask;
            sim::PendingLoad<T> pending;
            if (valid_mask)
                pending =
                    w.loadGlobalAsync<T>(aphysAddrs(), valid_mask);
            bool fault = voteFault(w, mask);
            w.issue(c.derefCheck);
            if (!fault) {
                w.waitUntil(pending.readyAt);
                return pending.value;
            }
            pageFault(w, mask);
            // Errored lanes are excluded: they read zeros.
            return w.loadGlobal<T>(aphysAddrs(), mask & validMask());
        }

        // Non-speculative: checks complete before the access issues.
        w.issue(c.derefCheck);
        if (voteFault(w, mask))
            pageFault(w, mask);
        return w.loadGlobal<T>(aphysAddrs(), mask & validMask());
    }

    /** Dereference for write: *ptr = v on every lane in @p mask. */
    void
    write(sim::Warp& w, const sim::LaneArray<T>& v,
          sim::LaneMask mask = sim::kFullMask) AP_LOCKSTEP AP_YIELDS
    {
        AP_ASSERT(initialized(), "dereference of uninitialized apointer");
        const AptrCosts& c = rt_->costs();
        if (rt_->config().permChecks)
            checkPerm(w, kPermWrite);
        w.issue(c.derefSetup + c.derefCheck);
        if (voteFault(w, mask))
            pageFault(w, mask);
        // Errored lanes are excluded: their writes are dropped.
        w.storeGlobal<T>(aphysAddrs(), v, mask & validMask());
    }

    /**
     * Escape hatch: the raw device pointer behind lane @p lane's
     * linked translation, for interop with code that wants a plain
     * T* (e.g. handing a frame-resident record to a library routine).
     * The pointer is pinned only while the lane stays linked; it must
     * not outlive the linking scope — no returning it, no stashing it
     * in a member (aplint rule linked-escape). Arithmetic that crosses
     * a page, assignment, or destroy() all invalidate it.
     */
    const T*
    linkedFramePtr(sim::Warp& w, int lane) const
        AP_REQUIRES_LINKED AP_RETURNS_LINKED
    {
        AP_ASSERT(translationValid(field[lane]),
                  "linkedFramePtr on unlinked lane");
        return reinterpret_cast<const T*>(
            w.mem().raw(aphysAddrs()[lane], sizeof(T)));
    }

  private:
    /** Page size; a constant, so lane math shifts and masks. */
    static constexpr uint64_t kPage = gpufs::kPageBytes;

    /** Pack an unlinked translation at absolute file offset @p off. */
    uint64_t
    packUnlinked(uint64_t off) const
    {
        if (rt_->config().kind == AptrKind::Short) {
            return packShort(0, off / kPage,
                             static_cast<uint32_t>(off % kPage), perm,
                             false);
        }
        return packLongUnlinked(off, perm, asid_);
    }

    /** True when this apointer maps raw GPU memory (no page cache). */
    bool isDirect() const { return file == kDirectFile; }

    /** Pack a linked translation: page at @p frame_addr, offset @p off. */
    uint64_t
    packLinked(sim::Addr frame_addr, uint64_t xpage, uint32_t off) const
    {
        if (rt_->config().kind == AptrKind::Short) {
            // Frame numbers are relative to the page-cache frame array,
            // or to the mapping base for direct mappings.
            sim::Addr frame0 =
                isDirect() ? directBase : rt_->fs().cache().frameAddr(0);
            uint32_t frame =
                static_cast<uint32_t>((frame_addr - frame0) / kPage);
            return packShort(frame, xpage, off, perm, true);
        }
        return packLongLinked(frame_addr + off, perm, asid_);
    }

    /** Aphysical address each lane points at (linked lanes only). */
    sim::LaneArray<sim::Addr>
    aphysAddrs() const
    {
        sim::LaneArray<sim::Addr> a{};
        const sim::Addr frame0 =
            isDirect() ? directBase : rt_->fs().cache().frameAddr(0);
        for (int l = 0; l < sim::kWarpSize; ++l) {
            const uint64_t t = field[l];
            if (!translationValid(t))
                continue;
            if (rt_->config().kind == AptrKind::Short)
                a[l] = frame0 + shortFrame(t) * kPage + shortOff(t);
            else
                a[l] = longPayload(t);
        }
        return a;
    }

    /** Bitmask of lanes holding valid translations. */
    sim::LaneMask
    validMask() const
    {
        sim::LaneMask m = 0;
        for (int l = 0; l < sim::kWarpSize; ++l)
            if (translationValid(field[l]))
                m |= 1u << l;
        return m;
    }

    /** The warp-wide "is there any page fault" vote (one __all). */
    bool
    voteFault(sim::Warp& w, sim::LaneMask mask)
    {
        sim::LaneArray<int> valid;
        for (int l = 0; l < sim::kWarpSize; ++l)
            // Errored lanes do not re-fault until clearError().
            valid[l] = (translationValid(field[l]) ||
                        (errored_ & (1u << l))) != 0
                           ? 1
                           : 0;
        return !w.all(valid, mask);
    }

    /** Fatal on permission violation (the "rw" check). */
    void
    checkPerm(sim::Warp& w, uint64_t need)
    {
        w.issue(rt_->costs().permCheck);
        if (!(perm & need))
            fatal("apointer permission violation: access needs ", need,
                  ", mapping grants ", perm);
    }

    /**
     * The translation aggregation loop, paper Listing 1. Runs until no
     * lane in @p mask is unlinked. Each iteration: ballot the faulting
     * lanes, elect a leader (__ffs), broadcast its target page
     * (__shfl), form the same-page subgroup (__ballot + __popc), have
     * the leader acquire the page with the aggregated reference count,
     * then link the whole subgroup.
     */
    void
    pageFault(sim::Warp& w, sim::LaneMask mask) AP_ELECTS_LEADER AP_YIELDS
    {
        const AptrCosts& c = rt_->costs();
        gpufs::PageCache& cache = rt_->fs().cache();
        const bool writable = (perm & kPermWrite) != 0;
        rt_->counters().faultEntries.inc();

        for (;;) {
            // Each aggregated subgroup is one fault record; the clock
            // starts before the ballot so the aggregation overhead is
            // attributed to the fault's lookup stage.
            const sim::Cycles agg_t0 = w.now();
            sim::LaneArray<int> invalid;
            for (int l = 0; l < sim::kWarpSize; ++l)
                invalid[l] = (!translationValid(field[l]) &&
                              !(errored_ & (1u << l)))
                                 ? 1
                                 : 0;
            uint32_t want = w.ballot(invalid, mask);
            w.issue(c.aggregationIter);
            if (want == 0)
                break;
            int leader = sim::ffs32(want) - 1;

            // Broadcast the leader's backing-store address and form
            // the subgroup of lanes faulting on the same page.
            sim::LaneArray<uint64_t> xpage;
            for (int l = 0; l < sim::kWarpSize; ++l)
                xpage[l] = fileOffset(l) / kPage;
            uint64_t lead_xpage = w.shfl(xpage, leader);
            sim::LaneArray<int> same;
            for (int l = 0; l < sim::kWarpSize; ++l)
                same[l] = invalid[l] && xpage[l] == lead_xpage;
            uint32_t group = w.ballot(same, mask);
            int count = sim::popc32(group);

            // Bounds check against the mapping (fault-path only).
            for (int l = 0; l < sim::kWarpSize; ++l) {
                if (!(group & (1u << l)))
                    continue;
                uint64_t off = fileOffset(l);
                if (off < mapOffset || off >= mapOffset + mapLength)
                    fatal("apointer fault out of mapped region: offset ",
                          off, " not in [", mapOffset, ", ",
                          mapOffset + mapLength, ")");
            }

            // Open the fault record for this subgroup; downstream
            // layers stamp their stages against the warp's active id.
            sim::FaultPath& fp = w.faultPath();
            const uint64_t fault_id =
                fp.begin(w.globalWarpId(), file, lead_xpage, agg_t0);
            w.setActiveFault(fault_id);

            if (isDirect()) {
                // Raw-memory mapping: translate without the page cache.
                sim::Addr frame_addr = directBase + lead_xpage * kPage;
                w.issue(c.faultLink);
                for (int l = 0; l < sim::kWarpSize; ++l) {
                    if (!(group & (1u << l)))
                        continue;
                    uint32_t off =
                        static_cast<uint32_t>(fileOffset(l) % kPage);
                    field[l] = packLinked(frame_addr, lead_xpage, off);
                    curXpage[l] = lead_xpage;
                    refViaTlb[l] = 0;
                }
                rt_->counters().pagesLinked.inc();
                fp.end(fault_id, sim::FaultKind::Minor, w.now());
                w.setActiveFault(0);
                continue;
            }

            gpufs::PageKey key =
                gpufs::makePageKey(asid_, file, lead_xpage);
            sim::Addr frame_addr = 0;
            bool via_tlb = false;
            bool major_fault = false;
            bool spec_hit = false;
            hostio::IoStatus ast = hostio::IoStatus::Ok;
            SoftTlb* tlb = rt_->tlbFor(w);
            if (tlb && tlb->lookupAndRef(w, key, count, frame_addr)) {
                via_tlb = true;
            } else {
                gpufs::AcquireResult r = cache.acquirePage(
                    w, key, count, writable, zeroFill);
                ast = r.status;
                frame_addr = r.frameAddr;
                major_fault = r.majorFault;
                spec_hit = r.specHit;
                if (r.ok() && tlb)
                    via_tlb = tlb->insertAfterAcquire(w, key, frame_addr,
                                                      count, cache);
            }
            if (ast != hostio::IoStatus::Ok) {
                // The fill failed terminally and the acquire holds no
                // references. Poison the subgroup's lanes — they stop
                // faulting and read zeros — instead of retrying forever
                // or aborting the kernel; the caller inspects status().
                errored_ |= group;
                if (status_ == hostio::IoStatus::Ok)
                    status_ = ast;
                rt_->counters().faultErrors.inc();
                fp.end(fault_id, sim::FaultKind::Error, w.now());
                w.setActiveFault(0);
                continue;
            }

            // Link the subgroup: install translations in registers.
            w.issue(c.faultLink);
            for (int l = 0; l < sim::kWarpSize; ++l) {
                if (!(group & (1u << l)))
                    continue;
                uint32_t off =
                    static_cast<uint32_t>(fileOffset(l) % kPage);
                field[l] = packLinked(frame_addr, lead_xpage, off);
                curXpage[l] = lead_xpage;
                refViaTlb[l] = via_tlb ? 1 : 0;
            }
            if (sim::check::SimCheck::armed)
                sim::check::SimCheck::get().pcLink(cache.checkDomain, key,
                                                   count, w.globalWarpId(),
                                                   w.now(), w.tenant());
            rt_->counters().pagesLinked.inc();
            // Close the record before running readahead: the
            // speculative fills it kicks off open their own records
            // and must not inherit this demand fault's id.
            fp.end(fault_id,
                   major_fault ? sim::FaultKind::Major
                   : spec_hit ? sim::FaultKind::SpecHit
                              : sim::FaultKind::Minor,
                   w.now());
            w.setActiveFault(0);
            // Feed the serviced fault to the cache's readahead (leader
            // context: we just elected and acted as the leader). Both
            // majors and minors advance the stream; direct mappings
            // and error paths never reach here.
            cache.readahead(w, key);
        }
    }

    /**
     * Release the references of @p lanes (all linked), aggregated by
     * (page, tlb-routing) subgroups with a leader per subgroup, the
     * mirror image of the fault aggregation.
     */
    void
    releaseLanes(sim::Warp& w, sim::LaneMask lanes) AP_ELECTS_LEADER
    {
        if (isDirect())
            return; // no references are held on raw-memory mappings
        const AptrCosts& c = rt_->costs();
        gpufs::PageCache& cache = rt_->fs().cache();
        SoftTlb* tlb = rt_->tlbFor(w);

        while (lanes) {
            int leader = sim::ffs32(lanes) - 1;
            uint64_t lead_xpage = fileOffset(leader) / kPage;
            bool via = refViaTlb[leader] != 0;
            sim::LaneMask group = 0;
            for (int l = 0; l < sim::kWarpSize; ++l) {
                if (!(lanes & (1u << l)))
                    continue;
                if (fileOffset(l) / kPage == lead_xpage &&
                    (refViaTlb[l] != 0) == via)
                    group |= 1u << l;
            }
            int count = sim::popc32(group);
            w.issue(c.aggregationIter);

            gpufs::PageKey key =
                gpufs::makePageKey(asid_, file, lead_xpage);
            // Unlink before the reference drop: a page must never look
            // evictable while a lane still holds its translation.
            if (sim::check::SimCheck::armed)
                sim::check::SimCheck::get().pcUnlink(cache.checkDomain, key,
                                                     count, w.globalWarpId(),
                                                     w.now());
            if (via) {
                AP_ASSERT(tlb != nullptr, "TLB ref without TLB");
                bool ok = tlb->unref(w, key, count, cache);
                AP_ASSERT(ok, "TLB lost a counted entry");
            } else {
                cache.releasePage(w, key, count);
            }
            lanes &= ~group;
            rt_->counters().pagesUnlinked.inc();
        }
    }

    /** Shared implementation of pointer arithmetic (byte deltas). */
    void
    addBytes(sim::Warp& w, const sim::LaneArray<int64_t>& delta,
             sim::LaneMask mask)
    {
        AP_ASSERT(initialized(), "arithmetic on uninitialized apointer");
        const AptrCosts& c = rt_->costs();
        w.issue(c.increment);

        // Identify linked lanes whose new position leaves their page.
        sim::LaneMask crossing = 0;
        sim::LaneArray<uint64_t> new_off;
        for (int l = 0; l < sim::kWarpSize; ++l) {
            uint64_t off = fileOffset(l);
            new_off[l] = off;
            if (!(mask & (1u << l)) || delta[l] == 0)
                continue;
            new_off[l] = off + static_cast<uint64_t>(delta[l]);
            if (translationValid(field[l]) &&
                new_off[l] / kPage != off / kPage)
                crossing |= 1u << l;
        }

        if (crossing) {
            // Slow path: crossing lanes unlink, returning references.
            w.issue(c.unlinkExtra);
            releaseLanes(w, crossing);
        }

        for (int l = 0; l < sim::kWarpSize; ++l) {
            if (!(mask & (1u << l)) || delta[l] == 0)
                continue;
            if (crossing & (1u << l)) {
                field[l] = packUnlinked(new_off[l]);
            } else if (translationValid(field[l])) {
                // Stay linked: bump the in-page offset.
                if (rt_->config().kind == AptrKind::Short) {
                    field[l] = packShort(
                        shortFrame(field[l]), shortXpage(field[l]),
                        static_cast<uint32_t>(new_off[l] % kPage), perm,
                        true);
                } else {
                    uint64_t aphys =
                        longPayload(field[l]) +
                        static_cast<uint64_t>(delta[l]);
                    field[l] = packLongLinked(aphys, perm, asid_);
                }
            } else {
                field[l] = packUnlinked(new_off[l]);
            }
        }
    }

    // --- register state (one 64-bit translation field per lane) ------
    sim::LaneArray<uint64_t> field{};

    /** Sentinel file id marking a direct (raw GPU memory) mapping. */
    static constexpr hostio::FileId kDirectFile = -2;

    // --- metadata: local memory, touched only on slow paths ----------
    GvmRuntime* rt_ = nullptr;
    hostio::FileId file = -1;
    /**
     * Address space the mapping belongs to (the creating warp's tenant
     * at map() time). Long translations carry it in the register's
     * [60:53] asid field; short translations have no spare bits, so
     * for them the ASID lives only here in apointer metadata and joins
     * the key on the fault path.
     */
    uint16_t asid_ = 0;
    sim::Addr directBase = 0;
    bool zeroFill = false;
    uint64_t mapOffset = 0;
    uint64_t mapLength = 0;
    uint64_t perm = 0;
    sim::LaneArray<uint64_t> curXpage{};
    sim::LaneArray<uint8_t> refViaTlb{};

    // --- sticky error state (see status()) ---------------------------
    hostio::IoStatus status_ = hostio::IoStatus::Ok;
    sim::LaneMask errored_ = 0;
};

/**
 * RAII helper that destroys an apointer when the enclosing scope ends,
 * mirroring "ptr destroyed and unlinked" in the paper's Figure 3
 * example.
 */
template <typename T>
class ScopedAptr
{
  public:
    ScopedAptr(sim::Warp& w, AptrVec<T> p) : w_(&w), ptr(std::move(p)) {}
    ~ScopedAptr() { ptr.destroy(*w_); }

    ScopedAptr(const ScopedAptr&) = delete;
    ScopedAptr& operator=(const ScopedAptr&) = delete;

    /** The managed apointer. */
    AptrVec<T>& operator*() { return ptr; }
    AptrVec<T>* operator->() { return &ptr; }

  private:
    sim::Warp* w_;
    AptrVec<T> ptr;
};

} // namespace ap::core

#endif // AP_CORE_APTR_HH
