/**
 * @file
 * A threadblock: a group of warps co-resident on one SM, sharing
 * scratchpad memory (where the software TLB lives) and a barrier.
 */

#ifndef AP_SIM_THREADBLOCK_HH
#define AP_SIM_THREADBLOCK_HH

#include <memory>

#include "sim/check/simcheck.hh"
#include "sim/engine.hh"
#include "sim/sm.hh"
#include "sim/types.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace ap::sim {

class Warp;

/**
 * Threadblock state shared by its warps. The scratchpad is modeled for
 * timing via Warp::chargeShared*(); functional block-shared structures
 * (e.g. the software TLB) live in @ref user and are charged explicitly.
 */
class ThreadBlock
{
  public:
    /**
     * @param block_id  index within the launch grid
     * @param num_warps warps in this block
     * @param sm_       the SM the block is resident on
     * @param eng_      the event engine
     * @param scratch_bytes scratchpad capacity for allocation checking
     */
    ThreadBlock(int block_id, int num_warps, Sm* sm_, Engine* eng_,
                size_t scratch_bytes)
        : blockId(block_id), numWarps(num_warps), sm(sm_), eng(eng_),
          scratchCapacity(scratch_bytes)
    {
    }

    /** Index of this block in the launch grid. */
    int id() const { return blockId; }

    /** The SM this block runs on. */
    Sm& smRef() { return *sm; }

    /**
     * Reserve @p bytes of scratchpad. Only accounting: fails fatally if
     * the block over-commits its scratchpad, as a real launch would.
     * @return offset of the reservation (unused except for debugging)
     */
    size_t
    scratchAlloc(size_t bytes)
    {
        if (scratchUsed + bytes > scratchCapacity)
            fatal("threadblock scratchpad exhausted: ", scratchUsed + bytes,
                  " > ", scratchCapacity);
        size_t off = scratchUsed;
        scratchUsed += bytes;
        return off;
    }

    /** Scratchpad bytes currently reserved. */
    size_t scratchUsage() const { return scratchUsed; }

    /**
     * Block-wide barrier (__syncthreads). Every warp of the block must
     * call it the same number of times.
     */
    void
    barrier() AP_YIELDS
    {
        Fiber* f = Fiber::current();
        AP_ASSERT(f != nullptr, "barrier outside a fiber");
        // Arrival publishes this warp's clock; departure joins every
        // arrival, so the barrier is a full synchronization point.
        const uint64_t chan = check::SimCheck::objChan(checkSerial, 0);
        if (check::SimCheck::armed)
            check::SimCheck::get().syncRelease(chan);
        if (++arrived < numWarps) {
            waiters.push(f);
            eng->block();
            if (check::SimCheck::armed)
                check::SimCheck::get().syncAcquire(chan);
            return;
        }
        arrived = 0;
        if (check::SimCheck::armed)
            check::SimCheck::get().syncAcquire(chan);
        while (!waiters.empty())
            eng->scheduleFiber(eng->now(), waiters.pop());
    }

    /**
     * Arbitrary per-block shared state owned by device code (scratch
     * accumulators, ...). Timing of accesses must be charged via
     * Warp::chargeShared*().
     */
    std::shared_ptr<void> user;

    /**
     * Slot reserved for the ActivePointers per-threadblock software
     * TLB, kept separate from @ref user so applications and the
     * translation layer never clash.
     */
    std::shared_ptr<void> tlbSlot;

  private:
    /** Never-reused serial naming this block's barrier sync channel. */
    const uint64_t checkSerial = check::SimCheck::nextId();

    int blockId;
    int numWarps;
    Sm* sm;
    Engine* eng;
    size_t scratchCapacity;
    size_t scratchUsed = 0;
    int arrived = 0;
    FiberQueue waiters;
};

} // namespace ap::sim

#endif // AP_SIM_THREADBLOCK_HH
