/**
 * @file
 * Simulated synchronization primitives for device code. The paper's
 * page cache uses fine-grain per-bucket locks with lock-free reads;
 * these locks are functional across warp fibers and charge the timing
 * model for the atomic operations a real GPU spinlock would perform.
 */

#ifndef AP_SIM_SYNC_HH
#define AP_SIM_SYNC_HH

#include <deque>

#include "sim/check/simcheck.hh"
#include "sim/warp.hh"
#include "util/annotations.hh"

namespace ap::sim {

/**
 * A device-wide mutex. FIFO handoff; the blocked warp sleeps in the
 * event engine rather than burning issue slots (a deliberate
 * idealization of a spinlock, noted in DESIGN.md: contention cost is
 * modeled as atomic latency plus queueing delay).
 */
class DeviceLock
{
  public:
    /**
     * @param lock_class the class its AP_LOCK_LEVEL names (a string
     *                   literal); simcheck ranks it by ap::kLockOrder
     * @param lock_index which lock of its class (bucket, entry slot)
     * @param latency    cost of the lock's atomic operation; overrides
     *                   the global-memory atomic latency (e.g. a
     *                   scratchpad lock such as a TLB entry lock is
     *                   much cheaper)
     */
    explicit DeviceLock(const char* lock_class, uint32_t lock_index = 0,
                        Cycles latency = -1)
        : lockClass(lock_class), index(lock_index),
          latencyOverride(latency)
    {
    }

    /**
     * Acquire the lock, blocking the calling warp until available.
     * Charges one atomic operation.
     */
    void
    acquire(Warp& w) AP_YIELDS
    {
        // The CAS that would take the lock (or observe it held).
        w.stall(atomicCost(w));
        w.issue(1);
        w.counters().lockAcquires.inc();
        if (!held) {
            held = true;
            noteAcquired(w);
            return;
        }
        w.counters().lockContended.inc();
        waiters.push_back(Fiber::current());
        w.engine().block();
        // Ownership was handed to us by release().
        noteAcquired(w);
    }

    /**
     * Try to acquire without blocking. Charges one atomic operation.
     * @return true if the lock was taken
     */
    bool
    tryAcquire(Warp& w) AP_NO_YIELD
    {
        w.stall(atomicCost(w));
        w.issue(1);
        w.counters().lockAcquires.inc();
        if (held)
            return false;
        held = true;
        noteAcquired(w);
        return true;
    }

    /** Release the lock; wakes the oldest waiter, if any. */
    void
    release(Warp& w) AP_NO_YIELD
    {
        AP_ASSERT(held, "release of unheld lock");
        w.issue(1);
        // Release before any handoff so the waiter's acquire observes
        // everything this owner did in its critical section.
        if (check::SimCheck::armed)
            check::SimCheck::get().onLockReleased(checkId);
        if (waiters.empty()) {
            held = false;
            return;
        }
        Fiber* next = waiters.front();
        waiters.pop_front();
        // Handoff: lock stays held; the waiter resumes as owner after
        // the release propagates.
        w.engine().scheduleFiber(w.now() + atomicCost(w), next);
    }

    /** True if some warp currently owns the lock. */
    bool isHeld() const { return held; }

  private:
    void
    noteAcquired(Warp& w)
    {
        if (check::SimCheck::armed)
            check::SimCheck::get().onLockAcquired(
                checkId, lockClass, index, w.globalWarpId(), w.now());
    }

    const char* lockClass;
    uint32_t index;

    /** Never-reused serial: shadow state can't alias across tests. */
    const uint64_t checkId = check::SimCheck::nextId();

    Cycles
    atomicCost(Warp& w) const
    {
        return latencyOverride >= 0 ? latencyOverride
                                    : w.costModel().atomicLatency;
    }

    bool held = false;
    Cycles latencyOverride = -1;
    std::deque<Fiber*> waiters;
};

} // namespace ap::sim

#endif // AP_SIM_SYNC_HH
