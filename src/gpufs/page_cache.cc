#include "gpufs/page_cache.hh"

#include <algorithm>

#include "prefetch/throttle.hh"
#include "sim/device.hh"
#include "sim/trace.hh"

namespace ap::gpufs {

namespace {

constexpr uint32_t kDirtyFlag = 1u;

using sim::check::SimCheck;

/** Sync channel of a PTE word (refcount/state) in @p dev's memory. */
uint64_t
wordChan(sim::Device* dev, sim::Addr a)
{
    return SimCheck::atomicChan(dev->mem().checkMemId, a);
}

/**
 * Stream identifier for the readahead table: the file id qualified by
 * the owning tenant's ASID (folded into bits above the 16-bit file
 * field). Two tenants scanning the same file advance independent
 * streams — otherwise their interleaved faults would look like random
 * access and neither would ever get ahead.
 */
hostio::FileId
streamIdOf(PageKey key)
{
    return pageKeyFile(key) |
           (static_cast<hostio::FileId>(pageKeyAsid(key)) << 16);
}

} // namespace

PageCache::PageCache(sim::Device& dev_, hostio::HostIoEngine& io_,
                     const Config& cfg_)
    : dev(&dev_), io(&io_), cfg(cfg_), pt(dev_, cfg_),
      life("pagecache", kPageEvictReasonNames, "pagecache.life.fills",
           "pagecache.life.lifetime", cfg_.numFrames),
      streams_(cfg_.readahead)
{
    framesBase = dev->mem().alloc(
        static_cast<size_t>(cfg.numFrames) * kPageBytes, kPageBytes);
    metaBase =
        dev->mem().alloc(cfg.numFrames * sizeof(FrameMeta), 128);
    stagingBase = dev->mem().alloc(
        static_cast<size_t>(cfg.stagingSlots) * kPageBytes,
        kPageBytes);

    freeFrames.reserve(cfg.numFrames);
    for (uint32_t f = cfg.numFrames; f-- > 0;)
        freeFrames.push_back(f);
    freeStaging.reserve(cfg.stagingSlots);
    for (uint32_t s = cfg.stagingSlots; s-- > 0;)
        freeStaging.push_back(s);
}

void
PageCache::noteFrameBound(PageKey key, uint32_t frame, sim::Cycles now)
{
    if (registry_)
        registry_->noteFrameGained(pageKeyAsid(key));
    life.open(dev->stats(), frame, now);
    contigProf.noteResidentPage(dev->stats(), key);
    maybeEmitCacheCounters(now);
}

void
PageCache::noteFrameUnbound(PageKey key, uint32_t frame,
                            PageEvictReason reason, sim::Cycles now)
{
    if (registry_)
        registry_->noteFrameLost(pageKeyAsid(key));
    const auto rec = life.retire(dev->stats(), frame, reason, now);
    if (rec.live)
        dev->stats().recordValue("pagecache.life.demand_hits",
                                 static_cast<double>(rec.hits));
    contigProf.noteEvictedPage(dev->stats(), key);
    maybeEmitCacheCounters(now);
}

void
PageCache::noteFrameDemandHit(uint32_t frame, sim::Cycles now)
{
    // A frame recycled mid-flight is not live; the ledger ignores it.
    const auto rec = life.hit(frame, now);
    if (rec.live && rec.hits == 0)
        dev->stats().recordValue("pagecache.life.fill_to_first_hit",
                                 now - rec.openCycle);
}

void
PageCache::maybeEmitCacheCounters(sim::Cycles now)
{
    sim::Tracer& tr = dev->tracer();
    if (!life.sampleDue(tr, now))
        return;
    tr.counterEvent(sim::kTelemetryTrack, "telemetry",
                    "pagecache.free_frames", now,
                    static_cast<double>(freeFrames.size()));
    tr.counterEvent(sim::kTelemetryTrack, "telemetry",
                    "pagecache.reserve_depth", now,
                    static_cast<double>(reserveFrames.size()));
    tr.counterEvent(sim::kTelemetryTrack, "telemetry", "contig.max_run",
                    now, static_cast<double>(contigProf.maxRunNow()));
}

void
PageCache::exportTranslationStatsHost()
{
    contigProf.exportSnapshot(dev->stats());
}

bool
PageCache::pteTryRefAdd(sim::Warp& w, sim::Addr rca, int count)
{
    for (int spin = 0; spin < 64; ++spin) {
        int32_t rc;
        {
            // The spin read is re-validated by the CAS.
            SimCheck::Relaxed relaxed;
            rc = w.mem().load<int32_t>(rca);
        }
        if (rc < 0)
            return false; // entry is being evicted; re-probe
        if (w.atomicCas<int32_t>(rca, rc, rc + count) == rc)
            return true;
    }
    return false; // spin budget exhausted under contention
}

void
PageCache::pteRefDrop(sim::Warp& w, sim::Addr rca, int count,
                      const char* why)
{
    for (;;) {
        int32_t rc;
        {
            SimCheck::Relaxed relaxed;
            rc = w.mem().load<int32_t>(rca);
        }
        AP_ASSERT(rc >= count, "refcount underflow (", why, "): ", rc,
                  " < ", count);
        if (w.atomicCas<int32_t>(rca, rc, rc - count) == rc)
            break;
    }
}

PageCache::PageSpan
PageCache::span(PageKey key) const
{
    const hostio::FileId f = pageKeyFile(key);
    const uint64_t off = pageKeyPageNo(key) * kPageBytes;
    const size_t size = io->store().valid(f) ? io->store().size(f) : 0;
    return {f, off,
            off < size ? std::min<size_t>(kPageBytes, size - off) : 0};
}

void
PageCache::zeroTail(sim::Addr fa, size_t len)
{
    if (len == kPageBytes)
        return;
    if (SimCheck::armed)
        SimCheck::get().onWrite(dev->mem().checkMemId, fa + len,
                                kPageBytes - len);
    std::memset(dev->mem().raw(fa + len, kPageBytes - len), 0,
                kPageBytes - len);
}

bool
PageCache::scanBucket(sim::Warp& w, uint32_t b, PageKey key, uint32_t& slot)
{
    w.chargeGlobalRead(
        static_cast<double>(cfg.bucketEntries * sizeof(Pte)));
    slot = cfg.bucketEntries;
    for (uint32_t s = 0; s < cfg.bucketEntries; ++s) {
        const uint64_t tk = w.mem().load<uint64_t>(pt.entryAddr(b, s));
        if (tk == key + 1)
            return true;
        if (tk == 0 && slot == cfg.bucketEntries)
            slot = s;
    }
    return false;
}

sim::Addr
PageCache::insertLoading(sim::Warp& w, uint32_t b, uint32_t slot,
                         PageKey key, uint32_t frame, int count,
                         uint32_t flags)
{
    const sim::Addr ea = pt.entryAddr(b, slot);
    Pte ne{key + 1, frame, count};
    ne.state = static_cast<uint32_t>(PteState::Loading);
    pt.writeEntry(w, ea, ne);
    if (SimCheck::armed) {
        SimCheck::get().pcInsert(checkDomain, key, count,
                                 w.globalWarpId(), w.now(), w.tenant());
        if (flags & kSpecFlag)
            SimCheck::get().pcSpeculate(checkDomain, key,
                                        w.globalWarpId(), w.now());
    }
    w.mem().store(metaAddr(frame),
                  FrameMeta{key + 1, pt.entryRef(b, slot), flags});
    w.chargeGlobalWrite(sizeof(Pte) + sizeof(FrameMeta));
    noteFrameBound(key, frame, w.now());
    return ea;
}

bool
PageCache::claimEntry(sim::Warp& w, sim::Addr ea, Pte& cur)
{
    if (w.atomicCas<int32_t>(PageTable::refcountAddr(ea), 0, -1) != 0)
        return false;
    SimCheck::Relaxed relaxed;
    cur = pt.readEntry(w, ea);
    return true;
}

void
PageCache::unclaim(sim::Addr ea)
{
    const sim::Addr rca = PageTable::refcountAddr(ea);
    SimCheck::Relaxed relaxed;
    dev->mem().store<int32_t>(rca, 0);
    if (SimCheck::armed)
        SimCheck::get().syncRmw(wordChan(dev, rca));
}

void
PageCache::removeEntry(sim::Addr ea, PageKey key, uint32_t frame, int warp,
                       sim::Cycles now)
{
    dev->mem().store<Pte>(ea, Pte{});
    if (SimCheck::armed)
        SimCheck::get().pcRemove(checkDomain, key, warp, now);
    dev->mem().store(metaAddr(frame), FrameMeta{});
}

AcquireResult
PageCache::acquirePage(sim::Warp& w, PageKey key, int count, bool writable,
                       bool zero_fill)
{
    AP_ASSERT(count > 0, "acquire with non-positive count");
    const sim::Cycles t0 = w.now();
    const uint64_t fid = w.activeFault();
    for (int attempt = 0;; ++attempt) {
        AP_ASSERT(attempt < 10000, "livelock acquiring page ", key);

        sim::Addr ea = pt.probe(w, key);
        // Lookup covers everything since the fault opened: warp
        // aggregation plus the first page-table probe (the recorder
        // keeps the first stamp; re-probe time lands in later stages).
        dev->faultPath().stamp(fid, sim::FaultStage::Lookup, w.now());
        if (ea != 0) {
            // --------------------------------------------------------
            // Minor fault: page resident. Take references with CAS so
            // the eviction claim (refcount 0 -> -1) excludes us.
            // --------------------------------------------------------
            // Poisoned entry left by a failed fill: reclaim it at
            // refcount 0 and re-fault from scratch instead of taking a
            // reference on a frame that holds no data.
            uint32_t st0;
            {
                SimCheck::Relaxed relaxed;
                st0 = w.mem().load<uint32_t>(PageTable::stateAddr(ea));
            }
            if (st0 == static_cast<uint32_t>(PteState::Error) &&
                reclaimErrorEntry(w, key, ea))
                continue;
            sim::Addr rca = PageTable::refcountAddr(ea);
            if (!pteTryRefAdd(w, rca, count)) {
                w.issue(4);
                continue;
            }
            // ABA guard: the slot may have been recycled for another
            // page between the probe and the CAS.
            bool recycled;
            {
                SimCheck::Relaxed relaxed;
                recycled = w.mem().load<uint64_t>(ea) != key + 1;
            }
            if (recycled) {
                pteRefDrop(w, rca, count, "ABA undo");
                continue;
            }
            auto readEntryRelaxed = [&] {
                SimCheck::Relaxed relaxed;
                return pt.readEntry(w, ea);
            };
            Pte e = readEntryRelaxed();
            // Speculative-fill settlement: this demand touch consumes
            // the readahead page. Clear the tag BEFORE the refcount
            // bump (the auditor forbids references on an undemanded
            // speculative page); the load/store pair is atomic at
            // fiber granularity, so exactly one faulter settles.
            bool spec_taken = false;
            {
                SimCheck::Relaxed relaxed;
                FrameMeta fm = w.mem().load<FrameMeta>(metaAddr(e.frame));
                if (fm.flags & kSpecFlag) {
                    fm.flags &= ~kSpecFlag;
                    w.mem().store(metaAddr(e.frame), fm);
                    spec_taken = true;
                }
            }
            if (spec_taken) {
                w.chargeGlobalWrite(sizeof(FrameMeta));
                if (SimCheck::armed)
                    SimCheck::get().pcSpecDemand(checkDomain, key,
                                                 w.globalWarpId(), w.now());
                // An errored speculative fill is not a hit; the host
                // completion already fed it to the stream table.
                if (e.state != static_cast<uint32_t>(PteState::Error))
                    settleSpecPage(
                        key, true,
                        e.state ==
                            static_cast<uint32_t>(PteState::Loading));
            }
            // The references are real only once the ABA guard passed.
            if (SimCheck::armed)
                SimCheck::get().pcRefAdjust(checkDomain, key, count,
                                            w.globalWarpId(), w.now(),
                                            w.tenant());
            // Wait for a concurrent loader to finish the transfer. The
            // spin reads are relaxed; the acquire below pairs with the
            // loader's release on the state word.
            while (e.state == static_cast<uint32_t>(PteState::Loading)) {
                w.chargeGlobalRead(32);
                w.stall(200);
                e = readEntryRelaxed();
            }
            if (SimCheck::armed)
                SimCheck::get().syncAcquire(
                    wordChan(dev, PageTable::stateAddr(ea)));
            if (e.state == static_cast<uint32_t>(PteState::Error)) {
                // The fill we waited on failed. Hand back our
                // references and surface the error; the poisoned entry
                // is reclaimed once every waiter has drained.
                pteRefDrop(w, rca, count, "error drain");
                if (SimCheck::armed)
                    SimCheck::get().pcRefAdjust(checkDomain, key, -count,
                                                w.globalWarpId(), w.now());
                dev->stats().inc("pagecache.fill_error_hits");
                return AcquireResult{0, 0, false, hostio::IoStatus::IoError};
            }
            if (writable) {
                // Idempotent lock-free RMW: concurrent faulters may all
                // set the same dirty bit.
                SimCheck::Relaxed relaxed;
                FrameMeta fm = w.mem().load<FrameMeta>(metaAddr(e.frame));
                if (!(fm.flags & kDirtyFlag)) {
                    fm.flags |= kDirtyFlag;
                    w.mem().store(metaAddr(e.frame), fm);
                    w.chargeGlobalWrite(sizeof(FrameMeta));
                }
            }
            dev->stats().inc("gpufs.minor_faults");
            noteTenantFault(key, "minor_faults", w.now() - t0);
            noteFrameDemandHit(e.frame, w.now());
            return AcquireResult{frameAddr(e.frame), e.frame, false,
                                 hostio::IoStatus::Ok, spec_taken};
        }

        // ------------------------------------------------------------
        // Major fault: allocate a frame, insert a Loading entry under
        // the bucket lock, fetch the data, publish Ready.
        // ------------------------------------------------------------
        uint32_t frame = allocFrame(w);
        dev->faultPath().stamp(fid, sim::FaultStage::Alloc, w.now());
        uint32_t b = pt.bucketOf(key);
        sim::DeviceLock& lk = pt.bucketLock(b);
        lk.acquire(w);

        // Re-probe under the lock: someone may have inserted first.
        uint32_t slot = 0;
        if (scanBucket(w, b, key, slot)) {
            lk.release(w);
            freeFrame(w, frame);
            continue; // take the minor-fault path
        }

        // Bucket overflow: displace a clean idle entry from this bucket.
        // The 16x-sized table makes this path vanishingly rare. Dirty
        // entries are skipped: only the clock path writes a victim back
        // while its entry is still visible (DESIGN.md section 6).
        uint32_t displaced = UINT32_MAX;
        if (slot == cfg.bucketEntries) {
            // What each slot held, for the fatal message below.
            uint32_t referenced = 0, loading = 0, dirty = 0, claimed = 0;
            for (uint32_t s = 0; s < cfg.bucketEntries; ++s) {
                sim::Addr cea = pt.entryAddr(b, s);
                Pte e = pt.readEntry(w, cea);
                // Error entries are always clean and make ideal
                // victims; Loading entries are never touched.
                if (e.refcount != 0 ||
                    e.state == static_cast<uint32_t>(PteState::Loading)) {
                    ++(e.refcount > 0   ? referenced
                       : e.refcount < 0 ? claimed
                                        : loading);
                    continue;
                }
                if (w.mem().load<FrameMeta>(metaAddr(e.frame)).flags &
                    kDirtyFlag) {
                    ++dirty;
                    continue;
                }
                Pte cur;
                if (!claimEntry(w, cea, cur)) {
                    ++claimed;
                    continue;
                }
                PageKey victim = e.taggedKey - 1;
                if (SimCheck::armed)
                    SimCheck::get().pcClaim(checkDomain, victim,
                                            w.globalWarpId(), w.now());
                FrameMeta fm = w.mem().load<FrameMeta>(metaAddr(e.frame));
                if (fm.flags & kDirtyFlag) {
                    // Became dirty between the check and the claim:
                    // unclaim and leave it to the clock path.
                    unclaim(cea);
                    if (SimCheck::armed)
                        SimCheck::get().pcUnclaim(checkDomain, victim,
                                                  w.globalWarpId(),
                                                  w.now());
                    w.chargeGlobalWrite(4);
                    ++dirty;
                    continue;
                }
                if (fm.flags & kSpecFlag)
                    settleSpecPage(victim, false, false);
                removeEntry(cea, victim, e.frame, w.globalWarpId(), w.now());
                noteFrameUnbound(victim, e.frame,
                                 PageEvictReason::BucketOverflow, w.now());
                w.chargeGlobalWrite(sizeof(Pte) + sizeof(FrameMeta));
                dev->stats().inc("gpufs.bucket_evictions");
                displaced = e.frame;
                slot = s;
                break;
            }
            if (displaced == UINT32_MAX)
                fatal("page table bucket ", b,
                      " overflow: no clean idle entry to displace (",
                      referenced, " referenced, ", loading, " loading, ",
                      dirty, " idle but dirty, ", claimed,
                      " claimed for eviction)");
        }

        ea = insertLoading(w, b, slot, key, frame, count,
                           writable ? kDirtyFlag : 0);
        lk.release(w);
        // The displaced entry's frame returns to the pool outside the
        // lock (it is already unreachable).
        if (displaced != UINT32_MAX)
            freeFrame(w, displaced);

        hostio::IoStatus fill = hostio::IoStatus::Ok;
        if (zero_fill && !swappedOut.count(key)) {
            // Anonymous first touch: a zeroed frame, no host transfer.
            zeroTail(frameAddr(frame), 0);
            w.chargeGlobalWrite(static_cast<double>(kPageBytes));
            dev->stats().inc("gpufs.zero_fills");
        } else {
            fill = fetchPage(w, key, frame);
        }
        if (fill != hostio::IoStatus::Ok) {
            publishFillError(w, key, ea, frame, count);
            dev->stats().inc("pagecache.fill_errors");
            return AcquireResult{0, 0, true, fill};
        }
        publishReady(PageTable::stateAddr(ea), key, w.globalWarpId(),
                     w.now());
        w.chargeGlobalWrite(4);
        dev->faultPath().stamp(fid, sim::FaultStage::Fill, w.now());
        dev->stats().inc("gpufs.major_faults");
        noteTenantFault(key, "major_faults", w.now() - t0);
        // The major-faulting warp's own access is the frame's first
        // demand touch: only frames nobody ever demanded (speculative
        // fills, poisoned loads) can retire dead-on-arrival.
        noteFrameDemandHit(frame, w.now());
        return AcquireResult{frameAddr(frame), frame, true};
    }
}

void
PageCache::releasePage(sim::Warp& w, PageKey key, int count)
{
    AP_ASSERT(count > 0, "release with non-positive count");
    sim::Addr ea = pt.probe(w, key);
    AP_ASSERT(ea != 0, "releasing non-resident page ", key);
    sim::Addr rca = PageTable::refcountAddr(ea);
    pteRefDrop(w, rca, count, "release");
    if (SimCheck::armed)
        SimCheck::get().pcRefAdjust(checkDomain, key, -count,
                                    w.globalWarpId(), w.now());
    dev->stats().inc("gpufs.releases");
}

PrefetchResult
PageCache::prefetchPage(sim::Warp& w, PageKey key, bool speculative)
{
    AP_ASSERT(!hooks.postFetch,
              "prefetch cannot run page-fault hooks; fault instead");
    if (pt.probe(w, key) != 0)
        return PrefetchResult::Resident; // already resident or loading

    // Advisory: a page that cannot be read (bad file, beyond EOF) is
    // simply not prefetched — the eventual demand fault reports the
    // error to a warp that can act on it.
    const PageSpan sp = span(key);
    if (sp.len == 0)
        return PrefetchResult::BadRange;

    // Free-pool frames only: advisory and speculative traffic must
    // never evict a resident page to make room for a guess.
    uint32_t frame = tryAllocFrame(w);
    if (frame == UINT32_MAX) {
        dev->stats().inc("gpufs.prefetch_dropped");
        return PrefetchResult::NoFrame;
    }
    uint32_t b = pt.bucketOf(key);
    sim::DeviceLock& lk = pt.bucketLock(b);
    lk.acquire(w);
    uint32_t slot = 0;
    const bool present = scanBucket(w, b, key, slot);
    if (present || slot == cfg.bucketEntries) {
        // Lost the race, or the bucket is full: advisory, so give up.
        lk.release(w);
        freeFrame(w, frame);
        if (present)
            return PrefetchResult::Resident;
        dev->stats().inc("gpufs.prefetch_dropped");
        return PrefetchResult::NoEntry;
    }
    // Speculative fills are charged to the tenant they guess for: a
    // tenant's readahead appetite spends its own share, not the pool's.
    const sim::Addr state_addr = PageTable::stateAddr(insertLoading(
        w, b, slot, key, frame, 0, speculative ? kSpecFlag : 0));
    lk.release(w);

    const sim::Addr fa = frameAddr(frame);
    // Speculative/advisory fills get their own fault record on the
    // prefetch track: the chain runs begin → enqueue/transfer stamps
    // (via the request's captured fid) → fill at Ready publication.
    const uint64_t pfid = dev->faultPath().begin(
        sim::kPrefetchTrack, static_cast<int64_t>(sp.file),
        pageKeyPageNo(key), w.now());
    std::function<void(hostio::IoStatus)> on_done =
        [this, fa, len = sp.len, state_addr, key, speculative,
         pfid](hostio::IoStatus st) {
            const sim::Cycles now = dev->engine().now();
            if (st != hostio::IoStatus::Ok) {
                // Failed prefetch: poison the zero-reference entry so
                // later acquirers reclaim it and re-fault, instead of
                // spinning forever on a Loading entry whose fill will
                // never arrive. The frame stays attached until the
                // reclaim frees it — no pinned-frame leak.
                publishError(state_addr, key, -1, now);
                dev->stats().inc("pagecache.fill_errors");
                // Thrash feedback: a poisoned speculative fill means
                // the window outran what the backing store can serve.
                if (speculative)
                    streams_.onThrash(streamIdOf(key), pageKeyPageNo(key));
                dev->faultPath().end(pfid, sim::FaultKind::Error, now);
                return;
            }
            zeroTail(fa, len);
            // Host-side Ready publication: faulting warps that acquire
            // the state word see the DMA'd bytes.
            publishReady(state_addr, key, -1, now);
            dev->stats().inc("gpufs.prefetched_pages");
            dev->faultPath().stamp(pfid, sim::FaultStage::Fill, now);
            dev->faultPath().end(pfid, sim::FaultKind::SpecFill, now);
        };
    // Speculative fills ride the low-priority DMA lane: within a
    // batch window, demand transfers dispatch first. The async request
    // captures the prefetch's fault id (not any demand fault the
    // calling warp is amid), so transfer stamps land on this record.
    const uint64_t saved_fid = w.activeFault();
    w.setActiveFault(pfid);
    hostio::IoStatus sync = io->readToGpuAsync(w, sp.file, sp.off, sp.len,
                                               fa, on_done, speculative);
    w.setActiveFault(saved_fid);
    if (sync != hostio::IoStatus::Ok)
        on_done(sync); // range re-validation failed; unreachable today
    dev->stats().inc("gpufs.prefetch_requests");
    return PrefetchResult::Started;
}

void
PageCache::readahead(sim::Warp& w, PageKey key)
{
    if (!cfg.readahead.enabled || hooks.postFetch)
        return;
    // Stream-table lookup: a handful of comparisons in the fault
    // handler's leader lane.
    w.issue(2);
    const prefetch::StreamDecision d =
        streams_.onFault(streamIdOf(key), pageKeyPageNo(key));
    if (!d.issue)
        return;

    prefetch::Pressure p;
    p.freeFrames = freeFrames.size();
    p.numFrames = cfg.numFrames;
    p.queueDepth = io->queueDepth();
    const uint32_t allow = prefetch::throttleAllow(d.count, p, cfg.readahead);
    if (allow < d.count)
        dev->stats().inc("prefetch.throttled", d.count - allow);

    // Issue the chunk. `covered` counts pages the stream cursor may
    // advance past: fills actually started plus pages already
    // resident. A drop (no frame / no slot) or the end of the file
    // stops the chunk; the uncovered tail is retried by the stream's
    // next fault.
    const sim::Cycles issue_t0 = w.now();
    uint32_t covered = 0;
    int64_t page = static_cast<int64_t>(d.startPage);
    for (uint32_t i = 0; i < allow; ++i, page += d.stride) {
        if (page < 0)
            break;
        const PrefetchResult r = prefetchPage(
            w,
            makePageKey(pageKeyAsid(key), pageKeyFile(key),
                        static_cast<uint64_t>(page)),
            true);
        if (r == PrefetchResult::Started) {
            ++covered;
            dev->stats().inc("prefetch.issued");
        } else if (r == PrefetchResult::Resident) {
            ++covered;
        } else {
            if (r == PrefetchResult::NoFrame || r == PrefetchResult::NoEntry)
                dev->stats().inc("prefetch.dropped");
            break;
        }
    }
    streams_.committed(d.sid, covered);
    // The burst runs on the faulting warp's leader lane after its own
    // fault closed, so this cost is handler overhead, not fault
    // latency — tracked separately so it can't hide in either.
    dev->stats().recordValue("faultpath.prefetch.issue_burst",
                             w.now() - issue_t0);
}

uint32_t
PageCache::tryAllocFrame(sim::Warp& w)
{
    allocLock.acquire(w);
    uint32_t f = UINT32_MAX;
    if (!freeFrames.empty()) {
        f = freeFrames.back();
        freeFrames.pop_back();
    }
    w.issue(2);
    allocLock.release(w);
    return f;
}

void
PageCache::settleSpecPage(PageKey key, bool hit, bool late)
{
    if (hit) {
        dev->stats().inc("prefetch.useful");
        if (late)
            dev->stats().inc("prefetch.late");
        streams_.onHit(streamIdOf(key), pageKeyPageNo(key));
    } else {
        dev->stats().inc("prefetch.wasted");
        streams_.onThrash(streamIdOf(key), pageKeyPageNo(key));
    }
}

uint32_t
PageCache::allocFrame(sim::Warp& w)
{
    // QoS fast path (registry attached only): an under-share tenant
    // takes a pre-evicted frame from the reclaim reserve under an
    // O(1) lock. allocLock is held for whole sweep revolutions by a
    // streaming over-share tenant, so without this reserve a victim
    // tenant's occasional demand miss queues behind every antagonist
    // sweep — an alloc-lock convoy no eviction policy can undo.
    if (registry_ && !registry_->overShare(w.tenant())) {
        reserveLock.acquire(w);
        if (!reserveFrames.empty()) {
            uint32_t f = reserveFrames.back();
            reserveFrames.pop_back();
            w.issue(2);
            reserveLock.release(w);
            dev->stats().inc("tenant.reserve_hits");
            return f;
        }
        reserveLock.release(w);
    }

    allocLock.acquire(w);
    if (!freeFrames.empty()) {
        uint32_t f = freeFrames.back();
        freeFrames.pop_back();
        w.issue(2);
        allocLock.release(w);
        return f;
    }

    // A claimed victim awaiting its entry/meta scrub (done after
    // allocLock is dropped; the refcount -1 claim keeps it inert).
    struct Claimed
    {
        uint32_t frame;
        PageKey key;
        sim::Addr ea;
        bool dirty;
        bool spec;  ///< undemanded speculative fill at claim time
        bool error; ///< poisoned (Error-state) entry at claim time
    };
    Claimed primary{};
    bool have_primary = false;
    Claimed extras[2];
    size_t n_extras = 0;
    // While the sweep already holds allocLock with the hand parked on
    // an evictable region, an attached registry has it pre-evict a few
    // extra clean victims into the reclaim reserve — the reclaim tax
    // lands on the tenant churning the cache, and under-share tenants
    // alloc from the reserve without ever queuing on allocLock.
    const size_t want_extras =
        (registry_ && reserveFrames.size() < kReserveTarget)
            ? std::min<size_t>(2, kReserveTarget - reserveFrames.size())
            : 0;

    // Clock sweep for a refcount-zero resident page.
    const uint64_t limit = 8ULL * cfg.numFrames;
    for (uint64_t tries = 0; tries < limit; ++tries) {
        uint32_t f = static_cast<uint32_t>(clockHand++ % cfg.numFrames);
        w.chargeGlobalRead(sizeof(FrameMeta));
        // The sweep reads entries lock-free; the CAS claim below is the
        // only step with teeth.
        FrameMeta fm;
        Pte e;
        {
            SimCheck::Relaxed relaxed;
            fm = w.mem().load<FrameMeta>(metaAddr(f));
        }
        if (fm.taggedKey == 0)
            continue; // free-pool or mid-recycle frame
        sim::Addr ea = pt.entryAddrOf(fm.entryRef);
        {
            SimCheck::Relaxed relaxed;
            e = pt.readEntry(w, ea);
        }
        if (e.taggedKey != fm.taggedKey || e.frame != f)
            continue; // stale back-reference
        if (e.refcount != 0 ||
            (e.state != static_cast<uint32_t>(PteState::Ready) &&
             e.state != static_cast<uint32_t>(PteState::Error)))
            continue;
        // Eviction preference: the first revolution takes only
        // unused-speculative or poisoned victims, so readahead guesses
        // are recycled before any demand-touched page.
        if (tries < cfg.numFrames && !(fm.flags & kSpecFlag) &&
            e.state != static_cast<uint32_t>(PteState::Error))
            continue;
        // Tenant isolation (QoS): through the strict phase of the
        // sweep, another tenant's frame may be claimed only when that
        // owner is over its weighted share and the requester is not —
        // an antagonist churning the cache recycles its own frames and
        // cannot push a victim tenant below its reserved share. The
        // final revolutions are unrestricted so policy can never turn
        // a full cache into the thrashing fatal below.
        if (registry_ && tries < 6ULL * cfg.numFrames) {
            tenant::TenantId owner = pageKeyAsid(e.taggedKey - 1);
            tenant::TenantId self = w.tenant();
            if (owner != self && !(registry_->overShare(owner) &&
                                   !registry_->overShare(self))) {
                dev->stats().inc("tenant.evict_skipped");
                continue;
            }
        }
        // Reserve extras are clean victims from the strict phase only:
        // no writeback amplification, and never claimed while the
        // sweep is in its anything-goes endgame.
        if (have_primary && ((fm.flags & kDirtyFlag) != 0 ||
                             tries >= 6ULL * cfg.numFrames))
            continue;
        Pte cur;
        if (!claimEntry(w, ea, cur))
            continue;
        // ABA re-check: the slot may have been recycled for another
        // page while the CAS was in flight (the claim then pinned the
        // wrong entry); undo and keep sweeping on mismatch.
        if (cur.taggedKey != fm.taggedKey || cur.frame != f) {
            unclaim(ea);
            continue;
        }
        if (SimCheck::armed)
            SimCheck::get().pcClaim(checkDomain, e.taggedKey - 1,
                                    w.globalWarpId(), w.now());

        PageKey victim_key = e.taggedKey - 1;
        // A still-tagged victim was never demanded: thrash feedback.
        if (fm.flags & kSpecFlag)
            settleSpecPage(victim_key, false, false);
        Claimed c{f, victim_key, ea, (fm.flags & kDirtyFlag) != 0,
                  (fm.flags & kSpecFlag) != 0,
                  e.state == static_cast<uint32_t>(PteState::Error)};
        if (!have_primary) {
            primary = c;
            have_primary = true;
        } else {
            extras[n_extras++] = c;
        }
        if (n_extras >= want_extras)
            break;
    }
    if (!have_primary)
        fatal("page cache thrashing: no evictable page among ",
              cfg.numFrames,
              " frames (all pages pinned by active references)");
    allocLock.release(w);

    // Scrub a claimed victim's entry and meta. A dirty victim is
    // written back BEFORE its entry disappears: while the claimed
    // (refcount -1) entry is still visible, concurrent faults on the
    // page spin instead of re-fetching stale bytes from the backing
    // store — otherwise the in-flight writeback would be lost.
    auto scrubVictim = [&](const Claimed& c, bool reserve_extra) {
        if (c.dirty)
            writeback(w, c.key, c.frame);
        sim::DeviceLock& vlk = pt.bucketLock(pt.bucketOf(c.key));
        vlk.acquire(w);
        removeEntry(c.ea, c.key, c.frame, w.globalWarpId(), w.now());
        w.chargeGlobalWrite(sizeof(Pte) + sizeof(FrameMeta));
        // Telemetry classification, most specific condition first: a
        // poisoned entry over a speculative tag over the QoS reserve
        // purpose over cross-tenant reclaim over the plain sweep.
        PageEvictReason reason =
            c.error         ? PageEvictReason::PoisonedReclaim
            : c.spec        ? PageEvictReason::SpecVictim
            : reserve_extra ? PageEvictReason::ReserveRefill
            : (registry_ && pageKeyAsid(c.key) != w.tenant())
                ? PageEvictReason::CrossTenant
                : PageEvictReason::ClockSweep;
        noteFrameUnbound(c.key, c.frame, reason, w.now());
        vlk.release(w);

        dev->stats().inc("gpufs.evictions");
        if (registry_ && pageKeyAsid(c.key) != w.tenant())
            dev->stats().inc("tenant.cross_evictions");
    };

    for (size_t i = 0; i < n_extras; ++i) {
        scrubVictim(extras[i], true);
        reserveLock.acquire(w);
        reserveFrames.push_back(extras[i].frame);
        w.issue(2);
        reserveLock.release(w);
        dev->stats().inc("tenant.reserve_refills");
    }
    scrubVictim(primary, false);
    return primary.frame;
}

void
PageCache::freeFrame(sim::Warp& w, uint32_t frame)
{
    allocLock.acquire(w);
    freeFrames.push_back(frame);
    w.issue(2);
    allocLock.release(w);
}

void
PageCache::writeback(sim::Warp& w, PageKey key, uint32_t frame)
{
    swappedOut.insert(key);
    const PageSpan sp = span(key);
    if (hooks.preWriteback)
        hooks.preWriteback(&w, key, frameAddr(frame), sp.len);
    hostio::IoStatus st =
        io->writeFromGpu(w, sp.file, sp.off, sp.len, frameAddr(frame));
    if (st != hostio::IoStatus::Ok) {
        // The frame still holds the data (no poisoning), but the
        // backing store is now stale. Count it; the victim is being
        // recycled, so the dirty contents are lost to the store.
        dev->stats().inc("pagecache.writeback_errors");
        warn("writeback of page ", pageKeyPageNo(key), " in file ",
             sp.file, " failed terminally: ", hostio::ioStatusName(st));
    }
    dev->stats().inc("gpufs.writebacks");
}

hostio::IoStatus
PageCache::fetchPage(sim::Warp& w, PageKey key, uint32_t frame)
{
    const PageSpan sp = span(key);
    if (!io->store().valid(sp.file))
        return hostio::IoStatus::BadFile;
    if (sp.len == 0)
        return hostio::IoStatus::Eof; // page wholly beyond EOF

    uint32_t slot = grabStagingSlot(w);
    sim::Addr sa =
        stagingBase + static_cast<sim::Addr>(slot) * kPageBytes;
    hostio::IoStatus st = io->readToGpu(w, sp.file, sp.off, sp.len, sa);
    if (st != hostio::IoStatus::Ok) {
        releaseStagingSlot(w, slot);
        return st;
    }
    // The requesting warp copies from staging into the frame (paper
    // section V: "GPU threads that invoke the file read are responsible
    // for moving the contents from the staging area").
    w.copyGlobal(frameAddr(frame), sa, sp.len);
    zeroTail(frameAddr(frame), sp.len);
    releaseStagingSlot(w, slot);
    if (hooks.postFetch)
        hooks.postFetch(w, key, frameAddr(frame), sp.len);
    return hostio::IoStatus::Ok;
}

void
PageCache::publishFillError(sim::Warp& w, PageKey key, sim::Addr ea,
                            uint32_t frame, int count)
{
    // Error frames hold no valid data: clear the dirty bit (set at
    // insert time for writable mappings) so the eviction sweeps never
    // write the garbage back.
    {
        SimCheck::Relaxed relaxed;
        FrameMeta fm = w.mem().load<FrameMeta>(metaAddr(frame));
        fm.flags = 0;
        w.mem().store(metaAddr(frame), fm);
    }
    w.chargeGlobalWrite(sizeof(FrameMeta));
    // Spinning minor faulters acquire the Error state and observe the
    // cleared dirty bit.
    publishError(PageTable::stateAddr(ea), key, w.globalWarpId(), w.now());
    w.chargeGlobalWrite(4);
    // Drop our own references last: a claim (refcount 0 -> -1) is only
    // legal from Ready or Error, so the entry cannot be reclaimed out
    // from under us before the Error state is visible.
    sim::Addr rca = PageTable::refcountAddr(ea);
    pteRefDrop(w, rca, count, "publishing error");
    if (SimCheck::armed)
        SimCheck::get().pcRefAdjust(checkDomain, key, -count,
                                    w.globalWarpId(), w.now());
}

void
PageCache::publishError(sim::Addr state_addr, PageKey key, int warp,
                        sim::Cycles now)
{
    if (SimCheck::armed) {
        SimCheck::get().pcFillError(checkDomain, key, warp, now);
        SimCheck::get().syncRelease(wordChan(dev, state_addr));
    }
    {
        SimCheck::Relaxed relaxed;
        dev->mem().store<uint32_t>(state_addr,
                                   static_cast<uint32_t>(PteState::Error));
    }
}

void
PageCache::publishReady(sim::Addr state_addr, PageKey key, int warp,
                        sim::Cycles now)
{
    if (SimCheck::armed) {
        SimCheck::get().pcReady(checkDomain, key, warp, now);
        SimCheck::get().syncRelease(wordChan(dev, state_addr));
    }
    {
        SimCheck::Relaxed relaxed;
        dev->mem().store<uint32_t>(state_addr,
                                   static_cast<uint32_t>(PteState::Ready));
    }
}

bool
PageCache::reclaimErrorEntry(sim::Warp& w, PageKey key, sim::Addr ea)
{
    Pte cur;
    if (!claimEntry(w, ea, cur))
        return false; // waiters still draining, or another claim won
    // ABA re-check under the claim (cf. the clock sweep): the slot may
    // have been recycled for another page while the CAS was in flight.
    if (cur.taggedKey != key + 1 ||
        cur.state != static_cast<uint32_t>(PteState::Error)) {
        unclaim(ea);
        return false;
    }
    if (SimCheck::armed)
        SimCheck::get().pcClaim(checkDomain, key, w.globalWarpId(),
                                w.now());
    sim::DeviceLock& lk = pt.bucketLock(pt.bucketOf(key));
    lk.acquire(w);
    removeEntry(ea, key, cur.frame, w.globalWarpId(), w.now());
    w.chargeGlobalWrite(sizeof(Pte) + sizeof(FrameMeta));
    noteFrameUnbound(key, cur.frame, PageEvictReason::PoisonedReclaim,
                     w.now());
    lk.release(w);
    freeFrame(w, cur.frame);
    dev->stats().inc("pagecache.poisoned_reclaims");
    return true;
}

uint32_t
PageCache::grabStagingSlot(sim::Warp& w)
{
    w.issue(2);
    uint32_t s;
    if (!freeStaging.empty()) {
        s = freeStaging.back();
        freeStaging.pop_back();
    } else {
        stagingWaiters.push_back(sim::Fiber::current());
        w.engine().block();
        AP_ASSERT(!stagingHandoff.empty(), "staging handoff lost");
        s = stagingHandoff.front();
        stagingHandoff.pop_front();
    }
    // Pair with the release in releaseStagingSlot: the previous user's
    // staging-buffer bytes happen-before ours.
    if (SimCheck::armed)
        SimCheck::get().syncAcquire(
            SimCheck::objChan(checkStagingSerial, s));
    return s;
}

void
PageCache::releaseStagingSlot(sim::Warp& w, uint32_t slot)
{
    w.issue(2);
    if (SimCheck::armed)
        SimCheck::get().syncRelease(
            SimCheck::objChan(checkStagingSerial, slot));
    if (!stagingWaiters.empty()) {
        sim::Fiber* next = stagingWaiters.front();
        stagingWaiters.pop_front();
        stagingHandoff.push_back(slot);
        w.engine().scheduleFiber(w.now(), next);
        return;
    }
    freeStaging.push_back(slot);
}

void
PageCache::writebackHost(PageKey key, uint32_t frame)
{
    const PageSpan sp = span(key);
    const sim::Addr fa = frameAddr(frame);
    if (hooks.preWriteback)
        hooks.preWriteback(nullptr, key, fa, sp.len);
    if (SimCheck::armed)
        SimCheck::get().onRead(dev->mem().checkMemId, fa, sp.len);
    io->store().pwrite(sp.file, dev->mem().raw(fa, sp.len), sp.len, sp.off);
    swappedOut.insert(key);
}

void
PageCache::flushDirtyHost()
{
    for (uint32_t f = 0; f < cfg.numFrames; ++f) {
        FrameMeta fm = dev->mem().load<FrameMeta>(metaAddr(f));
        if (fm.taggedKey == 0 || !(fm.flags & kDirtyFlag))
            continue;
        writebackHost(fm.taggedKey - 1, f);
        fm.flags &= ~kDirtyFlag;
        dev->mem().store(metaAddr(f), fm);
    }
}

void
PageCache::setTenantRegistry(tenant::TenantRegistry* reg)
{
    registry_ = reg;
    if (!reg) {
        // Nobody pops the reclaim reserve once QoS is off; return
        // parked frames to the ordinary free pool (host-side, no
        // simulated cost — detach happens between runs).
        freeFrames.insert(freeFrames.end(), reserveFrames.begin(),
                          reserveFrames.end());
        reserveFrames.clear();
        return;
    }
    // A warm cache already holds pages: charge each to its tenant, so
    // the first eviction under the registry un-charges a charged frame.
    reg->attachCacheFrames(cfg.numFrames);
    FrameMeta fm;
    Pte e;
    for (uint32_t f = 0; f < cfg.numFrames; ++f)
        if (residentEntryHost(f, fm, e) != 0)
            reg->noteFrameGained(pageKeyAsid(fm.taggedKey - 1));
}

sim::Addr
PageCache::residentEntryHost(uint32_t f, FrameMeta& fm, Pte& e)
{
    fm = dev->mem().load<FrameMeta>(metaAddr(f));
    if (fm.taggedKey == 0)
        return 0;
    const sim::Addr ea = pt.entryAddrOf(fm.entryRef);
    e = dev->mem().load<Pte>(ea);
    return e.taggedKey == fm.taggedKey && e.frame == f ? ea : 0;
}

void
PageCache::noteTenantFault(PageKey key, const char* kind,
                           sim::Cycles cycles)
{
    if (!registry_)
        return;
    const std::string& pfx = registry_->statPrefix(pageKeyAsid(key));
    dev->stats().inc(pfx + kind);
    dev->stats().recordValue(pfx + "fault_cycles", cycles);
}

tenant::TenantStatus
PageCache::teardownTenantHost(tenant::TenantId asid)
{
    // The check both passes share: frame f holds one of the tenant's
    // pages (meta in fm), and that page's entry (e) still points back
    // at f. Returns the entry's address, or 0.
    FrameMeta fm;
    Pte e;
    auto tenantEntry = [&](uint32_t f) -> sim::Addr {
        const sim::Addr ea = residentEntryHost(f, fm, e);
        return ea != 0 && pageKeyAsid(fm.taggedKey - 1) == asid ? ea : 0;
    };

    // Pass 1: refuse while any of the tenant's pages is referenced or
    // still loading — teardown must not yank a frame out from under a
    // linked apointer or an in-flight DMA. No state is mutated before
    // this pass completes, so a Busy return leaves the cache intact.
    for (uint32_t f = 0; f < cfg.numFrames; ++f)
        if (tenantEntry(f) != 0 &&
            (e.refcount != 0 ||
             e.state == static_cast<uint32_t>(PteState::Loading)))
            return tenant::TenantStatus::Busy;

    // Pass 2: scrub. Dirty pages write back (their file outlives the
    // address space), entries and frames are reclaimed, the registry
    // is un-charged. ASIDs are never reused, so nothing can re-fault
    // these keys afterwards.
    uint64_t scrubbed = 0;
    for (uint32_t f = 0; f < cfg.numFrames; ++f) {
        const sim::Addr ea = tenantEntry(f);
        if (ea == 0)
            continue;
        const PageKey key = fm.taggedKey - 1;
        if (fm.flags & kDirtyFlag)
            writebackHost(key, f);
        // An undemanded speculative page dies here: thrash feedback,
        // same as an unused eviction.
        if (fm.flags & kSpecFlag)
            settleSpecPage(key, false, false);
        // The shadow walks Ready/Error -> Claimed -> Absent like a
        // normal eviction; warp -1 marks the host actor.
        if (SimCheck::armed)
            SimCheck::get().pcClaim(checkDomain, key, -1,
                                    dev->engine().now());
        removeEntry(ea, key, f, -1, dev->engine().now());
        freeFrames.push_back(f);
        noteFrameUnbound(key, f, PageEvictReason::Teardown,
                         dev->engine().now());
        ++scrubbed;
    }

    // Swap residue: a torn-down tenant's zero-fill history must not
    // leak map entries forever (its ASID is never reused).
    std::erase_if(swappedOut,
                  [asid](PageKey k) { return pageKeyAsid(k) == asid; });
    dev->stats().inc("tenant.teardown_scrubbed", scrubbed);

    // Residual audit: an armed checker reports any page of this ASID
    // still tracked in the domain — the scrub must have been complete.
    if (SimCheck::armed)
        SimCheck::get().pcTeardownTenant(checkDomain, asid,
                                         dev->engine().now());
    return tenant::TenantStatus::Ok;
}

int32_t
PageCache::residentRefcountHost(PageKey key)
{
    // Diagnostic probe: may be called while the device is running.
    SimCheck::Relaxed relaxed;
    uint32_t b = pt.bucketOf(key);
    for (uint32_t s = 0; s < cfg.bucketEntries; ++s) {
        sim::Addr ea = pt.entryAddr(b, s);
        Pte e = dev->mem().load<Pte>(ea);
        if (e.taggedKey == key + 1)
            return e.refcount;
    }
    return -1;
}

} // namespace ap::gpufs
