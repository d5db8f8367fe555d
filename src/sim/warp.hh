/**
 * @file
 * The warp execution context: the surface "device code" is written
 * against. A warp is 32 lockstep lanes; per-thread values are
 * LaneArrays, control divergence is explicit lane masks, and the CUDA
 * warp primitives (__ballot/__all/__shfl/__ffs/__popc) the paper's
 * Listing 1 relies on are methods here.
 *
 * Every method that would be an instruction on hardware charges the
 * timing model; memory accesses additionally reserve DRAM bandwidth and
 * pay load latency. Device code therefore gets latency hiding "for
 * free", exactly the property the paper's evaluation leans on.
 */

#ifndef AP_SIM_WARP_HH
#define AP_SIM_WARP_HH

#include <algorithm>

#include "sim/cost_model.hh"
#include "sim/engine.hh"
#include "sim/memory.hh"
#include "sim/threadblock.hh"
#include "util/annotations.hh"
#include "util/stats.hh"

namespace ap::sim {

class FaultPath;

/** An in-flight asynchronous load (used for speculative prefetch). */
template <typename T>
struct PendingLoad
{
    /** Loaded values (snapshot at issue time). */
    LaneArray<T> value;
    /** Simulated time the data becomes usable. */
    Cycles readyAt = 0;
};

/**
 * The sim.* counters charged on every instruction, DRAM access, atomic
 * and lock operation. Each is a StatGroup::Counter, resolved once per
 * device instead of looked up by name on every charge: the Device owns
 * one set, and every warp of every launch charges through it.
 */
struct SimCounters
{
    explicit SimCounters(StatGroup& s)
        : instructions(s, "sim.instructions"),
          dramReadBytes(s, "sim.dram_read_bytes"),
          dramWriteBytes(s, "sim.dram_write_bytes"),
          atomics(s, "sim.atomics"), lockAcquires(s, "sim.lock_acquires"),
          lockContended(s, "sim.lock_contended")
    {
    }

    StatGroup::Counter instructions;
    StatGroup::Counter dramReadBytes;
    StatGroup::Counter dramWriteBytes;
    StatGroup::Counter atomics;
    StatGroup::Counter lockAcquires;
    StatGroup::Counter lockContended;
};

/**
 * One warp's execution context. Constructed by Device at block
 * dispatch; device code receives a reference in its kernel functor.
 */
class Warp
{
  public:
    /**
     * @param global_id    warp index across the whole launch
     * @param warp_in_block warp index within its threadblock
     * @param tb           owning threadblock
     * @param mem_         device global memory
     * @param eng_         event engine
     * @param cm_          timing constants
     * @param stats_       launch-wide statistics sink
     * @param counters_    the device's handles on stats_'s sim.* counters
     * @param fp_          the device's fault-path recorder
     */
    Warp(int global_id, int warp_in_block, ThreadBlock* tb,
         GlobalMemory* mem_, Engine* eng_, const CostModel* cm_,
         StatGroup* stats_, SimCounters& counters_, FaultPath& fp_)
        : gid(global_id), widInBlock(warp_in_block), tb_(tb), mem_(mem_),
          eng_(eng_), cm_(cm_), stats_(stats_), counters_(counters_),
          fp_(fp_)
    {
    }

    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------

    /** Warp index across the launch. */
    int globalWarpId() const { return gid; }

    /** Warp index within the threadblock. */
    int warpInBlock() const { return widInBlock; }

    /** The owning threadblock. */
    ThreadBlock& block() { return *tb_; }

    /** Lane indices 0..31 as a LaneArray (like threadIdx.x % 32). */
    static LaneArray<uint32_t>
    laneIds()
    {
        return LaneArray<uint32_t>::iota(0);
    }

    // ------------------------------------------------------------------
    // Timing primitives
    // ------------------------------------------------------------------

    /** Current simulated time (the clock() intrinsic). */
    Cycles now() const { return eng_->now(); }

    /**
     * Charge @p n warp-instructions: reserve SM issue slots and advance
     * this warp by the serial dependent-chain latency. This is the
     * single knob through which all apointer logic costs time.
     *
     * AP_NO_YIELD here (and on the charge/stall primitives below)
     * declares the protocol boundary: the engine suspension inside
     * models bounded instruction/memory latency, not an unbounded
     * protocol yield point (fault service, DMA, lock handoff), so
     * calling these while a registered spinlock is held is ordinary
     * lock hold time. simcheck's runtime lock checks accept the same.
     */
    void
    issue(int n) AP_NO_YIELD
    {
        if (n <= 0)
            return;
        counters_.instructions.inc(n);
        Cycles t = eng_->now();
        // aplint: allow(no-yield) IssuePort::acquire is a port-timing reservation, not a DeviceLock acquire
        Cycles port = tb_->smRef().issuePort.acquire(t, n);
        Cycles serial = t + n * cm_->depLatencyPerInstr;
        // aplint: allow(no-yield) bounded issue/dependency latency, not a protocol yield point
        eng_->waitUntil(std::max(port, serial));
    }

    /** Stall this warp for @p c cycles without consuming issue slots. */
    // aplint: allow(no-yield) bounded backoff stall, not a protocol yield point
    void stall(Cycles c) AP_NO_YIELD { eng_->waitUntil(eng_->now() + c); }

    /** Suspend until absolute time @p t. */
    void waitUntil(Cycles t) { eng_->waitUntil(t); }

    // ------------------------------------------------------------------
    // Global memory
    // ------------------------------------------------------------------

    /**
     * Per-lane gather load from global memory (one warp-instruction,
     * coalesced into 128 B transactions, blocking).
     */
    template <typename T>
    LaneArray<T>
    loadGlobal(const LaneArray<Addr>& a, LaneMask m = kFullMask)
    {
        PendingLoad<T> p = loadGlobalAsync<T>(a, m);
        eng_->waitUntil(p.readyAt);
        return p.value;
    }

    /**
     * Per-lane gather load that does not block: used to model the
     * paper's speculative prefetch (section IV-B), where the load is
     * issued in parallel with the warp-wide valid-bit vote.
     */
    template <typename T>
    PendingLoad<T>
    loadGlobalAsync(const LaneArray<Addr>& a, LaneMask m = kFullMask)
    {
        issue(1);
        double traffic = mem_->coalescedTraffic(a, sizeof(T), m);
        counters_.dramReadBytes.inc((uint64_t)traffic);
        PendingLoad<T> p;
        p.readyAt = mem_->readDone(eng_->now(), traffic);
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (m & (1u << lane))
                p.value[lane] = mem_->load<T>(a[lane]);
        return p;
    }

    /** Per-lane scatter store (posted: consumes bandwidth, no wait). */
    template <typename T>
    void
    storeGlobal(const LaneArray<Addr>& a, const LaneArray<T>& v,
                LaneMask m = kFullMask)
    {
        issue(1);
        double traffic = mem_->coalescedTraffic(a, sizeof(T), m);
        counters_.dramWriteBytes.inc((uint64_t)traffic);
        mem_->writeDone(eng_->now(), traffic);
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (m & (1u << lane))
                mem_->store<T>(a[lane], v[lane]);
    }

    /** Scalar (single-lane) store. */
    template <typename T>
    void
    storeScalar(Addr a, const T& v)
    {
        issue(1);
        double traffic = std::max<double>(sizeof(T), 32.0);
        counters_.dramWriteBytes.inc((uint64_t)traffic);
        mem_->writeDone(eng_->now(), traffic);
        mem_->store<T>(a, v);
    }

    /**
     * Warp-cooperative bulk copy within device memory (staging buffer to
     * page frame, etc.). Charges read+write traffic and loop
     * instructions; blocks until the data has landed.
     */
    void
    copyGlobal(Addr dst, Addr src, size_t len) AP_LOCKSTEP
    {
        // One iteration moves 16 B per lane.
        int iters = static_cast<int>(
            (len + kWarpSize * 16 - 1) / (kWarpSize * 16));
        issue(4 * iters);
        counters_.dramReadBytes.inc(len);
        counters_.dramWriteBytes.inc(len);
        Cycles readDone = mem_->readDone(eng_->now(), (double)len);
        mem_->writeDone(readDone, (double)len);
        if (check::SimCheck::armed) {
            check::SimCheck::get().onRead(mem_->checkMemId, src, len);
            check::SimCheck::get().onWrite(mem_->checkMemId, dst, len);
        }
        std::memmove(mem_->raw(dst, len), mem_->raw(src, len), len);
        eng_->waitUntil(readDone);
    }

    // ------------------------------------------------------------------
    // Atomics (global memory)
    // ------------------------------------------------------------------

    /** Scalar atomic add; returns the previous value. */
    template <typename T>
    T
    atomicAdd(Addr a, T delta)
    {
        issue(1);
        counters_.atomics.inc();
        Cycles done =
            mem_->readDone(eng_->now(), 32.0) + cm_->atomicLatency;
        T old;
        {
            // Atomics synchronize through a per-word channel; the word
            // itself is not plain data for the race detector.
            check::SimCheck::Relaxed relaxed;
            old = mem_->load<T>(a);
            mem_->store<T>(a, static_cast<T>(old + delta));
        }
        syncAtomic(a);
        eng_->waitUntil(done);
        return old;
    }

    /** Scalar atomic compare-and-swap; returns the previous value. */
    template <typename T>
    T
    atomicCas(Addr a, T expected, T desired)
    {
        issue(1);
        counters_.atomics.inc();
        Cycles done =
            mem_->readDone(eng_->now(), 32.0) + cm_->atomicLatency;
        T old;
        {
            check::SimCheck::Relaxed relaxed;
            old = mem_->load<T>(a);
            if (old == expected)
                mem_->store<T>(a, desired);
        }
        syncAtomic(a);
        eng_->waitUntil(done);
        return old;
    }

    /** Scalar atomic exchange; returns the previous value. */
    template <typename T>
    T
    atomicExch(Addr a, T desired)
    {
        issue(1);
        counters_.atomics.inc();
        Cycles done =
            mem_->readDone(eng_->now(), 32.0) + cm_->atomicLatency;
        T old;
        {
            check::SimCheck::Relaxed relaxed;
            old = mem_->load<T>(a);
            mem_->store<T>(a, desired);
        }
        syncAtomic(a);
        eng_->waitUntil(done);
        return old;
    }

    // ------------------------------------------------------------------
    // Scratchpad (shared memory) timing charges
    // ------------------------------------------------------------------

    /**
     * Timing-only charge for a global read whose functional effect was
     * (or will be) applied directly through mem(). Used by concurrent
     * data structures that must mutate several words without an
     * intervening yield point.
     */
    void
    chargeGlobalRead(double bytes) AP_NO_YIELD
    {
        issue(1);
        counters_.dramReadBytes.inc((uint64_t)bytes);
        // aplint: allow(no-yield) bounded DRAM latency charge, not a protocol yield point
        eng_->waitUntil(mem_->readDone(eng_->now(), bytes));
    }

    /** Timing-only charge for a posted global write (see above). */
    void
    chargeGlobalWrite(double bytes) AP_NO_YIELD
    {
        issue(1);
        counters_.dramWriteBytes.inc((uint64_t)bytes);
        mem_->writeDone(eng_->now(), bytes);
    }

    /**
     * Charge the cost of a shared-memory read (the functional data lives
     * in native block-shared structures, see ThreadBlock::user).
     */
    void
    chargeSharedRead() AP_NO_YIELD
    {
        issue(1);
        // aplint: allow(no-yield) bounded scratchpad latency charge, not a protocol yield point
        eng_->waitUntil(eng_->now() + cm_->scratchLatency);
    }

    /** Charge the cost of a shared-memory write (posted). */
    void chargeSharedWrite() AP_NO_YIELD { issue(1); }

    // ------------------------------------------------------------------
    // Warp vote / shuffle primitives (one instruction each)
    // ------------------------------------------------------------------

    /** __ballot: bit i set iff lane i is active in @p m and pred true. */
    uint32_t
    ballot(const LaneArray<int>& pred, LaneMask m = kFullMask) AP_LOCKSTEP
    {
        issue(1);
        uint32_t r = 0;
        for (int lane = 0; lane < kWarpSize; ++lane)
            if ((m & (1u << lane)) && pred[lane])
                r |= 1u << lane;
        return r;
    }

    /** __all: true iff pred holds on every active lane. */
    bool
    all(const LaneArray<int>& pred, LaneMask m = kFullMask) AP_LOCKSTEP
    {
        issue(1);
        for (int lane = 0; lane < kWarpSize; ++lane)
            if ((m & (1u << lane)) && !pred[lane])
                return false;
        return true;
    }

    /** __any: true iff pred holds on at least one active lane. */
    bool
    any(const LaneArray<int>& pred, LaneMask m = kFullMask) AP_LOCKSTEP
    {
        issue(1);
        for (int lane = 0; lane < kWarpSize; ++lane)
            if ((m & (1u << lane)) && pred[lane])
                return true;
        return false;
    }

    /** __shfl: broadcast lane @p src_lane's value to all lanes. */
    template <typename T>
    T
    shfl(const LaneArray<T>& v, int src_lane) AP_LOCKSTEP
    {
        issue(1);
        AP_ASSERT(src_lane >= 0 && src_lane < kWarpSize,
                  "shfl source lane out of range");
        return v[src_lane];
    }

    /** __shfl_xor: lane i receives the value of lane i^laneMask. */
    template <typename T>
    LaneArray<T>
    shflXor(const LaneArray<T>& v, int lane_mask) AP_LOCKSTEP
    {
        issue(1);
        AP_ASSERT(lane_mask >= 0 && lane_mask < kWarpSize,
                  "shflXor lane mask out of range");
        LaneArray<T> r;
        for (int lane = 0; lane < kWarpSize; ++lane)
            r[lane] = v[lane ^ lane_mask];
        return r;
    }

    /**
     * __shfl_down: lane i receives the value of lane i+delta, or keeps
     * its own when that lane is past the warp.
     */
    template <typename T>
    LaneArray<T>
    shflDown(const LaneArray<T>& v, int delta) AP_LOCKSTEP
    {
        issue(1);
        AP_ASSERT(delta >= 0, "shflDown delta is negative");
        LaneArray<T> r;
        for (int lane = 0; lane < kWarpSize; ++lane)
            r[lane] = v[delta < kWarpSize - lane ? lane + delta : lane];
        return r;
    }

    /** Block-wide barrier (__syncthreads). */
    void
    syncThreads() AP_LOCKSTEP AP_YIELDS
    {
        issue(1);
        tb_->barrier();
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /** Device global memory (functional access for setup helpers). */
    GlobalMemory& mem() { return *mem_; }

    /** The launch-wide statistics sink. */
    StatGroup& stats() { return *stats_; }

    /** The device's handles on the hot sim.* counters of stats(). */
    SimCounters& counters() { return counters_; }

    /** Timing constants. */
    const CostModel& costModel() const { return *cm_; }

    /** The event engine (for blocking on external events like DMA). */
    Engine& engine() { return *eng_; }

    /** The device's fault-path recorder. */
    FaultPath& faultPath() { return fp_; }

    /** The fault ID this warp is currently servicing (0 when none). */
    uint64_t activeFault() const { return activeFault_; }

    /**
     * Set (or clear with 0) the fault ID that downstream stage stamps
     * — page-cache lookup/alloc/fill, host-IO enqueue/transfer —
     * attribute their timestamps to. The fault handler brackets each
     * aggregated subgroup with this.
     */
    void setActiveFault(uint64_t fid) { activeFault_ = fid; }

    /** The tenant (ASID) this warp currently executes on behalf of. */
    uint16_t tenant() const { return tenant_; }

    /**
     * Bind the warp to tenant @p asid: subsequent mappings, faults,
     * and host-IO requests it issues are keyed and charged to that
     * address space. Serving workloads rebind per request; the default
     * binding is tenant 0 so single-tenant code never notices.
     */
    void setTenant(uint16_t asid) { tenant_ = asid; }

  private:
    /** Acquire+release on the sync channel of atomic word @p a. */
    void
    syncAtomic(Addr a)
    {
        if (check::SimCheck::armed)
            check::SimCheck::get().syncRmw(
                check::SimCheck::atomicChan(mem_->checkMemId, a));
    }

    int gid;
    int widInBlock;
    ThreadBlock* tb_;
    GlobalMemory* mem_;
    Engine* eng_;
    const CostModel* cm_;
    StatGroup* stats_;
    SimCounters& counters_;
    FaultPath& fp_;
    uint64_t activeFault_ = 0;
    uint16_t tenant_ = 0;
};

} // namespace ap::sim

#endif // AP_SIM_WARP_HH
