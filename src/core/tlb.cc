#include "core/tlb.hh"

#include "sim/check/simcheck.hh"
#include "sim/device.hh"
#include "sim/trace.hh"
#include "util/rng.hh"

namespace ap::core {

SoftTlb::SoftTlb(sim::ThreadBlock& tb, uint32_t n_entries, AptrKind kind,
                 sim::Cycles lock_latency, sim::Device& dev_)
    : nEntries(n_entries), dev(dev_),
      life("tlb", kTlbEvictReasonNames, "tlb.inserts",
           "tlb.entry_lifetime", n_entries)
{
    AP_ASSERT(n_entries > 0, "TLB needs at least one entry");
    // Scratchpad accounting per paper section IV-D: 12 B (short) /
    // 20 B (long) per entry plus a 4 B entry lock. The lifetime
    // ledger is host-side bookkeeping and charges nothing.
    size_t entry_bytes = (kind == AptrKind::Short ? 12 : 20) + 4;
    tb.scratchAlloc(n_entries * entry_bytes);
    entries.reserve(n_entries);
    for (uint32_t i = 0; i < n_entries; ++i)
        entries.emplace_back(i, lock_latency);
    name = "tlb[blk" + std::to_string(tb.id()) + "]";
    occSeries = "tlb.occupancy.blk" + std::to_string(tb.id());
}

SoftTlb::~SoftTlb()
{
    // Threadblocks (and their TLBs) die at the end of each launch
    // while the Device lives on: an entry still populated here
    // survived to kernel exit and retires as Teardown at the current
    // device clock.
    for (uint32_t i = 0; i < nEntries; ++i)
        if (entries[i].key != 0)
            retire(dev.stats(), i, TlbEvictReason::Teardown,
                   dev.engine().now());
    // Cross-check: every hit this TLB put into core.tlb_hits must be
    // accounted on exactly one (now retired) entry — a mismatch means
    // some eviction path skipped its retirement.
    if (sim::check::SimCheck::armed)
        sim::check::SimCheck::get().tlbHitSumAudit(life.retiredHits(),
                                                   localHits, name);
}

void
SoftTlb::retire(StatGroup& st, uint32_t slot, TlbEvictReason reason,
                sim::Cycles now)
{
    const auto rec = life.retire(st, slot, reason, now);
    AP_ASSERT(rec.live, "TLB retired an entry the ledger never opened");
    if (rec.hits > 0)
        st.inc("tlb.entry_hits_retired", rec.hits);
    maybeEmitOccupancy(now);
}

void
SoftTlb::maybeEmitOccupancy(sim::Cycles now)
{
    sim::Tracer& tr = dev.tracer();
    if (life.sampleDue(tr, now))
        tr.counterEvent(sim::kTelemetryTrack, "telemetry", occSeries, now,
                        static_cast<double>(life.live()));
}

uint32_t
SoftTlb::slotOf(gpufs::PageKey key) const
{
    return static_cast<uint32_t>(hashMix64(key) % nEntries);
}

bool
SoftTlb::lookupAndRef(sim::Warp& w, gpufs::PageKey key, int n,
                      sim::Addr& frame_addr)
{
    const sim::Cycles t0 = w.now();
    const uint32_t slot = slotOf(key);
    Entry& e = entries[slot];
    // Hash + scratchpad probe.
    w.issue(3);
    w.chargeSharedRead();
    if (e.key != key + 1) {
        w.stats().inc("core.tlb_misses");
        return false;
    }
    e.entryLock.acquire(w);
    if (e.key != key + 1) {
        // Raced with a discard between probe and lock.
        e.entryLock.release(w);
        w.stats().inc("core.tlb_misses");
        return false;
    }
    e.count += n;
    frame_addr = e.frameAddr;
    // Telemetry: reuse distance is the gap since the entry last
    // proved useful (since install for the first hit) — short
    // distances say the entry earns its slot, long ones say the
    // direct-mapped slot is being kept warm for nothing. Sampled
    // under the entry lock, so it is monotone against the install
    // and previous-hit stamps taken under the same lock.
    const sim::Cycles th = w.now();
    const auto before = life.hit(slot, th);
    AP_ASSERT(before.live, "TLB hit an entry the ledger never opened");
    w.stats().recordValue("tlb.reuse_distance", th - before.lastHitCycle);
    localHits++;
    w.chargeSharedWrite();
    e.entryLock.release(w);
    w.stats().inc("core.tlb_hits");
    // Hit-path latency distribution (includes entry-lock contention):
    // the TLB's whole point is shaving the page-table walk, so the
    // tail of this histogram is the first thing to check when minor
    // faults look slow.
    w.stats().recordValue("faultpath.tlb.lookup", w.now() - t0);
    return true;
}

bool
SoftTlb::insertAfterAcquire(sim::Warp& w, gpufs::PageKey key,
                            sim::Addr frame_addr, int n,
                            gpufs::PageCache& cache)
{
    const uint32_t slot = slotOf(key);
    Entry& e = entries[slot];
    e.entryLock.acquire(w);
    w.chargeSharedRead();
    if (e.key == key + 1) {
        // Another warp installed the same page meanwhile: merge.
        e.count += n;
        e.ptRefs += n;
        w.chargeSharedWrite();
        e.entryLock.release(w);
        return true;
    }
    if (e.count > 0) {
        // Conflict with a counted entry: evicting it would lose its
        // count, so this page bypasses the TLB (section III-E).
        e.entryLock.release(w);
        w.stats().inc("core.tlb_bypasses");
        return false;
    }
    if (e.key != 0) {
        // Count-zero victim: return its page-table references and
        // discard the stale mapping.
        AP_ASSERT(e.ptRefs > 0, "counted-out TLB entry without refs");
        retire(w.stats(), slot, TlbEvictReason::Conflict, w.now());
        gpufs::PageKey old_key = e.key - 1;
        int old_refs = e.ptRefs;
        e.key = 0;
        e.ptRefs = 0;
        cache.releasePage(w, old_key, old_refs);
        w.stats().inc("core.tlb_evictions");
    }
    e.key = key + 1;
    e.frameAddr = frame_addr;
    e.count = n;
    e.ptRefs = n;
    life.open(w.stats(), slot, w.now());
    maybeEmitOccupancy(w.now());
    w.chargeSharedWrite();
    e.entryLock.release(w);
    return true;
}

bool
SoftTlb::unref(sim::Warp& w, gpufs::PageKey key, int n,
               gpufs::PageCache& cache)
{
    const uint32_t slot = slotOf(key);
    Entry& e = entries[slot];
    w.issue(3);
    e.entryLock.acquire(w);
    if (e.key != key + 1) {
        e.entryLock.release(w);
        return false;
    }
    AP_ASSERT(e.count >= n, "TLB count underflow");
    e.count -= n;
    w.chargeSharedWrite();
    if (e.count == 0) {
        // Discard the mapping and return the aggregated references
        // (the proactive-decrement heuristic of section III-B).
        retire(w.stats(), slot, TlbEvictReason::Invalidation, w.now());
        int refs = e.ptRefs;
        gpufs::PageKey k = e.key - 1;
        e.key = 0;
        e.ptRefs = 0;
        e.entryLock.release(w);
        cache.releasePage(w, k, refs);
        return true;
    }
    e.entryLock.release(w);
    return true;
}

int
SoftTlb::countOfHost(gpufs::PageKey key) const
{
    const Entry& e = entries[slotOf(key)];
    return e.key == key + 1 ? e.count : -1;
}

} // namespace ap::core
