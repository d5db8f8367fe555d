/**
 * @file
 * The simulated GPU global memory: a real byte array (so workloads
 * compute real results) plus a timing model (latency + a bandwidth
 * server over DRAM traffic).
 */

#ifndef AP_SIM_MEMORY_HH
#define AP_SIM_MEMORY_HH

#include <bit>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>

#include "sim/check/simcheck.hh"
#include "sim/cost_model.hh"
#include "sim/engine.hh"
#include "sim/types.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace ap::sim {

/**
 * Simulated device (aphysical) memory. Functional loads/stores operate
 * on the backing array; timing methods reserve DRAM bandwidth and apply
 * load latency. Address 0 is reserved so that 0 can act as a null
 * aphysical address.
 *
 * The array reads zero until written, and the page table relies on it.
 * It comes from calloc, so a large array is a fresh anonymous mapping
 * that the OS zeroes on first touch: pages a run never touches are
 * never committed.
 */
class GlobalMemory
{
  public:
    /**
     * @param bytes capacity of the simulated device memory
     * @param cm    timing constants
     */
    GlobalMemory(size_t bytes, const CostModel& cm)
        : store_(static_cast<uint8_t*>(std::calloc(bytes, 1))),
          capacity(bytes), bw(cm.memBytesPerCycle), latency(cm.memLatency),
          segmentBytes(cm.memSegmentBytes),
          segmentShift(std::countr_zero(cm.memSegmentBytes))
    {
        AP_ASSERT(isPowerOf2(segmentBytes),
                  "coalescing segment must be a power of two, not ",
                  segmentBytes);
        AP_ASSERT(bytes >= kReservedBytes, "device memory of ", bytes,
                  " bytes cannot hold its reserved null region");
        if (!store_)
            fatal("cannot allocate ", bytes, " bytes of device memory");
    }

    /** Capacity in bytes. */
    size_t size() const { return capacity; }

    /**
     * Identity of this memory instance for the simcheck shadow. Serials
     * are never reused, so shadow state from a destroyed memory cannot
     * alias a new one in the same process (sequential tests).
     */
    const uint32_t checkMemId =
        static_cast<uint32_t>(check::SimCheck::nextId());

    /**
     * Bump-allocate @p bytes of device memory.
     * @param bytes size of the allocation
     * @param align alignment, a power of two
     * @return device address of the allocation
     */
    Addr
    alloc(size_t bytes, size_t align = 256)
    {
        AP_ASSERT(isPowerOf2(align), "alignment must be a power of two");
        Addr base = roundUp(brk, align);
        if (!fits(base, bytes))
            fatal("device memory exhausted: need ", bytes, " bytes at ",
                  base, ", capacity ", capacity);
        brk = base + bytes;
        return base;
    }

    /** Functional typed load; no timing. */
    template <typename T>
    T
    load(Addr a) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= kReservedBytes);
        AP_ASSERT(a <= capacity - sizeof(T), "device load out of bounds at ",
                  a);
        if (check::SimCheck::armed)
            check::SimCheck::get().onRead(checkMemId, a, sizeof(T));
        T v;
        std::memcpy(&v, store_.get() + a, sizeof(T));
        return v;
    }

    /** Functional typed store; no timing. */
    template <typename T>
    void
    store(Addr a, const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= kReservedBytes);
        AP_ASSERT(a <= capacity - sizeof(T), "device store out of bounds at ",
                  a);
        if (check::SimCheck::armed)
            check::SimCheck::get().onWrite(checkMemId, a, sizeof(T));
        std::memcpy(store_.get() + a, &v, sizeof(T));
    }

    /** Raw pointer into the backing array (for DMA-style block copies). */
    uint8_t*
    raw(Addr a, size_t len)
    {
        AP_ASSERT(fits(a, len), "raw range out of bounds");
        return store_.get() + a;
    }

    const uint8_t*
    raw(Addr a, size_t len) const
    {
        AP_ASSERT(fits(a, len), "raw range out of bounds");
        return store_.get() + a;
    }

    /**
     * Timing: a read of @p bytes of DRAM traffic issued at @p t.
     * @return time at which the data is available
     */
    Cycles
    readDone(Cycles t, double bytes) AP_NO_YIELD
    {
        // aplint: allow(no-yield) BwPort::acquire is a bandwidth-timing reservation, not a DeviceLock acquire
        return bw.acquire(t, bytes) + latency;
    }

    /**
     * Timing: a write of @p bytes of DRAM traffic issued at @p t.
     * Writes are posted: the warp does not wait for them, but they
     * consume bandwidth.
     * @return time at which the bandwidth is released
     */
    Cycles
    writeDone(Cycles t, double bytes) AP_NO_YIELD
    {
        // aplint: allow(no-yield) BwPort::acquire is a bandwidth-timing reservation, not a DeviceLock acquire
        return bw.acquire(t, bytes);
    }

    /**
     * Count distinct coalescing segments touched by the active lanes.
     * Each segment costs a full memSegmentBytes transaction of traffic,
     * mirroring hardware coalescing.
     */
    double
    coalescedTraffic(const LaneArray<Addr>& addrs, unsigned bytesPerLane,
                     LaneMask mask) const
    {
        // Collect distinct segment ids; 32 entries max, linear scan is
        // cheap and avoids allocation. Neighbouring lanes mostly share a
        // segment, so the one seen last skips the scan.
        constexpr int kCap = 4 * kWarpSize;
        Addr segs[kCap];
        int nsegs = 0;
        int extra = 0; // segments past dedup capacity, counted distinct
        Addr lastSeen = ~Addr{0}; // the segment last found in segs
        auto addSeg = [&](Addr seg) {
            if (seg == lastSeen)
                return;
            for (int i = 0; i < nsegs; ++i) {
                if (segs[i] == seg) {
                    lastSeen = seg;
                    return;
                }
            }
            if (nsegs < kCap) {
                segs[nsegs++] = seg;
                lastSeen = seg;
            } else {
                ++extra;
            }
        };
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            Addr first = addrs[lane] >> segmentShift;
            Addr last = (addrs[lane] + bytesPerLane - 1) >> segmentShift;
            for (Addr s = first; s <= last; ++s)
                addSeg(s);
        }
        return static_cast<double>(nsegs + extra) * segmentBytes;
    }

  private:
    /**
     * Bytes below the first allocation: address 0 must stay the null
     * aphysical address. The capacity is at least this and a typed
     * access at most this, so the hot load() and store() bound check
     * `a <= capacity - sizeof(T)` cannot wrap and is one compare.
     */
    static constexpr size_t kReservedBytes = 64;

    /**
     * True if [@p a, @p a + @p len) lies inside the array. Subtracts
     * first, so an address or length near 2^64 cannot wrap past the
     * check.
     */
    bool
    fits(Addr a, size_t len) const
    {
        return a <= capacity && len <= capacity - a;
    }

    struct Free
    {
        void operator()(uint8_t* p) const { std::free(p); }
    };

    std::unique_ptr<uint8_t[], Free> store_;
    size_t capacity;
    Addr brk = kReservedBytes;
    BwServer bw;
    Cycles latency;
    unsigned segmentBytes;
    int segmentShift; ///< log2(segmentBytes)
};

} // namespace ap::sim

#endif // AP_SIM_MEMORY_HH
