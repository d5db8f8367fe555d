/**
 * @file
 * The discrete-event engine that drives the whole simulation: GPU warps,
 * the host-side DMA/batching machinery, and any auxiliary host events all
 * share one timeline measured in GPU cycles.
 */

#ifndef AP_SIM_ENGINE_HH
#define AP_SIM_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/check/simcheck.hh"
#include "sim/fiber.hh"
#include "sim/types.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace ap::sim {

/**
 * A deterministic discrete-event scheduler. Events at equal timestamps
 * fire in insertion order, so runs are bit-reproducible.
 *
 * Almost every event is a warp wake-up, so a wake-up is a bare Fiber*
 * in the heap entry; only host callbacks carry a boxed std::function.
 */
class Engine
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. Monotonic across kernel launches. */
    Cycles now() const { return curTime; }

    /** Schedule @p cb at time max(when, now()). */
    void
    schedule(Cycles when, Callback cb)
    {
        // Scheduling a host-context event carries the scheduler's view
        // into the event: release into the host channel now, join it
        // when the event fires. Host events are sequential in the
        // simulated machine (one host thread), so one channel suffices.
        if (check::SimCheck::armed) {
            check::SimCheck::get().hostRelease();
            cb = [c = std::move(cb)] {
                check::SimCheck::get().hostJoin();
                c();
            };
        }
        scheduleRaw(when, nullptr, std::make_unique<Callback>(std::move(cb)));
    }

    /** Schedule a fiber resume at time max(when, now()). */
    void
    scheduleFiber(Cycles when, Fiber* f)
    {
        // Waking another fiber is a synchronization edge from the waker
        // to the wakee; self-reschedules (waitUntil) carry no new edge.
        if (check::SimCheck::armed && Fiber::current() != f)
            check::SimCheck::get().edgeToFiber(f);
        scheduleRaw(when, f, nullptr);
    }

    /**
     * Suspend the current fiber until @p when. Must be called from
     * inside a fiber.
     */
    void
    waitUntil(Cycles when) AP_YIELDS
    {
        Fiber* f = Fiber::current();
        AP_ASSERT(f != nullptr, "waitUntil outside a fiber");
        if (when <= curTime)
            return;
        scheduleFiber(when, f);
        f->yield();
    }

    /**
     * Suspend the current fiber with no wakeup scheduled; someone else
     * (a lock release, a DMA completion) must resume it.
     */
    void
    block() AP_YIELDS
    {
        Fiber* f = Fiber::current();
        AP_ASSERT(f != nullptr, "block outside a fiber");
        f->yield();
    }

    /** Process events until the queue drains. */
    void
    run()
    {
        while (!queue.empty()) {
            // Move the event out before it runs: what it schedules may
            // reallocate the queue.
            std::pop_heap(queue.begin(), queue.end(), later);
            Event ev = std::move(queue.back());
            queue.pop_back();
            AP_ASSERT(ev.when >= curTime, "time went backwards");
            curTime = ev.when;
            if (ev.fiber) {
                if (check::SimCheck::armed)
                    check::SimCheck::get().fiberResuming(ev.fiber);
                ev.fiber->resume();
            } else {
                (*ev.cb)();
            }
        }
    }

    /** True if no events are pending. */
    bool idle() const { return queue.empty(); }

  private:
    /** One heap entry: a fiber to resume, or else a host callback. */
    struct Event
    {
        Cycles when;
        uint64_t seq;
        Fiber* fiber;
        std::unique_ptr<Callback> cb;
    };

    /** Heap order: @p a fires after @p b. (when, seq) is a total order. */
    static bool
    later(const Event& a, const Event& b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** Enqueue with no instrumentation (internal). */
    void
    scheduleRaw(Cycles when, Fiber* f, std::unique_ptr<Callback> cb)
    {
        if (when < curTime)
            when = curTime;
        queue.push_back(Event{when, nextSeq++, f, std::move(cb)});
        std::push_heap(queue.begin(), queue.end(), later);
    }

    std::vector<Event> queue; ///< binary min-heap on (when, seq)
    Cycles curTime = 0;
    uint64_t nextSeq = 0;
};

/**
 * A bandwidth server: a shared resource that transfers bytes at a fixed
 * rate. Reservations queue FIFO; the finish time of a reservation is
 * when its last byte has moved.
 */
class BwServer
{
  public:
    explicit BwServer(double bytes_per_cycle)
        : bytesPerCycle(bytes_per_cycle)
    {
        AP_ASSERT(bytesPerCycle > 0, "bandwidth must be positive");
    }

    /** Reserve a transfer of @p bytes not starting before @p t. */
    Cycles
    acquire(Cycles t, double bytes)
    {
        if (freeAt < t)
            freeAt = t;
        freeAt += bytes / bytesPerCycle;
        return freeAt;
    }

    /**
     * Reserve a transfer of @p bytes plus a fixed per-transfer setup
     * occupancy (e.g. DMA engine programming). The setup occupies the
     * server, which is exactly what transfer batching amortizes.
     */
    Cycles
    acquireWithSetup(Cycles t, double bytes, Cycles setup)
    {
        if (freeAt < t)
            freeAt = t;
        freeAt += setup + bytes / bytesPerCycle;
        return freeAt;
    }

    /** Time at which the server next becomes free. */
    Cycles freeTime() const { return freeAt; }

  private:
    double bytesPerCycle;
    Cycles freeAt = 0;
};

} // namespace ap::sim

#endif // AP_SIM_ENGINE_HH
