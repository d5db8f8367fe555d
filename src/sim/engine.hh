/**
 * @file
 * The discrete-event engine that drives the whole simulation: GPU warps,
 * the host-side DMA/batching machinery, and any auxiliary host events all
 * share one timeline measured in GPU cycles.
 */

#ifndef AP_SIM_ENGINE_HH
#define AP_SIM_ENGINE_HH

#include <algorithm>
#include <bit>
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
 *
 * run() pops events and dispatches them. A fiber that run() dispatched
 * (the loop fiber) pops the next event itself when it suspends and that
 * event is a fiber wake-up: its own wake-up continues in place, and
 * another fiber's is entered straight from its stack (Fiber::handoff).
 * Host callbacks run only on the scheduler stack, so a fiber that a
 * callback resumed inline yields back to that callback.
 */
class Engine
{
  public:
    using Callback = std::function<void()>;

    Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    ~Engine()
    {
        for (const Event& ev : queue)
            delete ev.cb;
    }

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
        push(when, nullptr, new Callback(std::move(cb)));
    }

    /** Schedule a fiber resume at time max(when, now()). */
    void
    scheduleFiber(Cycles when, Fiber* f)
    {
        // Waking another fiber is a synchronization edge from the waker
        // to the wakee; self-reschedules (waitUntil) carry no new edge.
        if (check::SimCheck::armed && Fiber::current() != f)
            check::SimCheck::get().edgeToFiber(f);
        push(when, f, nullptr);
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
        const Event wake{when, nextSeq++, f, nullptr};
        switchOut(f, &wake);
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
        switchOut(f, nullptr);
    }

    /** Process events until the queue drains. */
    void
    run()
    {
        while (!queue.empty()) {
            const Event ev = pop();
            advanceTo(ev);
            if (ev.fiber) {
                loopFiber = ev.fiber;
                ev.fiber->resume();
                loopFiber = nullptr;
            } else {
                // The entry owned the callback; it dies once it ran.
                std::unique_ptr<Callback> cb(ev.cb);
                (*cb)();
            }
        }
    }

    /** True if no events are pending. */
    bool idle() const { return queue.empty(); }

  private:
    /**
     * One heap entry: a fiber to resume, or else a host callback. The
     * entry owns @ref cb until the callback runs.
     */
    struct Event
    {
        Cycles when;
        uint64_t seq;
        Fiber* fiber;
        Callback* cb;
    };

    /** Children per heap node: a shallower heap, fewer sift steps. */
    static constexpr size_t kArity = 4;
    static_assert(kArity == 4, "siftDown's tournament compares four");

    /**
     * @p ev's time as an integer that orders like it. Times are never
     * negative, and a non-negative double's bit pattern orders like its
     * value; clearing the sign bit folds -0.0 onto +0.0, its equal.
     */
    static uint64_t
    timeKey(const Event& ev)
    {
        return std::bit_cast<uint64_t>(ev.when) & ~(uint64_t{1} << 63);
    }

    /**
     * Heap order: @p a fires before @p b. (when, seq) is a total order.
     * Integer keys and bitwise operators: heap comparisons are
     * unpredictable, and this form compiles without branches.
     */
    static bool
    earlier(const Event& a, const Event& b)
    {
        const uint64_t ta = timeKey(a);
        const uint64_t tb = timeKey(b);
        return (ta < tb) | ((ta == tb) & (a.seq < b.seq));
    }

    /** Enqueue at max(when, now()) with no instrumentation. */
    void
    push(Cycles when, Fiber* f, Callback* cb)
    {
        pushEvent(Event{std::max(when, curTime), nextSeq++, f, cb});
    }

    /** Add @p ev at a new leaf and sift it up. */
    void
    pushEvent(const Event& ev)
    {
        queue.push_back(ev);
        siftUp(queue.size() - 1, ev);
    }

    /** Fill the hole at @p i with @p ev, moving later parents down. */
    void
    siftUp(size_t i, const Event& ev)
    {
        Event* const q = queue.data();
        while (i > 0) {
            const size_t parent = (i - 1) / kArity;
            if (!earlier(ev, q[parent]))
                break;
            q[i] = q[parent];
            i = parent;
        }
        q[i] = ev;
    }

    /** Remove and return the earliest event. The queue must not be empty. */
    Event
    pop()
    {
        const Event top = queue.front();
        const Event last = queue.back();
        queue.pop_back();
        if (!queue.empty())
            siftDown(last);
        return top;
    }

    /**
     * Push @p ev and pop the earliest event in one sift. The queue must
     * not be empty, and @p ev must not be earlier than its top.
     */
    Event
    replaceTop(const Event& ev)
    {
        const Event top = queue.front();
        siftDown(ev);
        return top;
    }

    /**
     * Fill the root's hole with @p ev. The hole first walks down to a
     * leaf along the earliest children, then @p ev sifts up from there:
     * an entry pushed here is usually later than most of the heap, so
     * it rises little, and the walk down needs no compare against it.
     */
    void
    siftDown(const Event& ev)
    {
        Event* const q = queue.data();
        const size_t n = queue.size();
        size_t i = 0;
        for (;;) {
            const size_t first = i * kArity + 1;
            size_t best = first;
            if (first + kArity <= n) {
                // A full node: a branch-free tournament of four.
                const size_t a = first + earlier(q[first + 1], q[first]);
                const size_t b =
                    first + 2 + earlier(q[first + 3], q[first + 2]);
                best = a + (b - a) * earlier(q[b], q[a]);
            } else if (first < n) {
                for (size_t c = first + 1; c < n; ++c)
                    if (earlier(q[c], q[best]))
                        best = c;
            } else {
                break;
            }
            q[i] = q[best];
            i = best;
        }
        siftUp(i, ev);
    }

    /** Move the clock to @p ev, which is about to be dispatched. */
    void
    advanceTo(const Event& ev)
    {
        AP_ASSERT(ev.when >= curTime, "time went backwards");
        curTime = ev.when;
        if (ev.fiber && check::SimCheck::armed)
            check::SimCheck::get().fiberResuming(ev.fiber);
    }

    /**
     * Leave fiber @p f, which is suspending until its @p wake event, or
     * until someone resumes it when @p wake is null. The loop fiber
     * dispatches the next event itself when that is a fiber wake-up,
     * exactly as run() would: its own wake-up continues in place, and
     * another fiber's takes over as the loop fiber. In every other case
     * (a host callback is next, the queue is empty, or @p f was resumed
     * inline by a callback) @p wake is queued and @p f yields to
     * whoever resumed it.
     */
    void
    switchOut(Fiber* f, const Event* wake) AP_YIELDS
    {
        if (f == loopFiber) {
            if (wake && (queue.empty() || earlier(*wake, queue.front()))) {
                advanceTo(*wake);
                return;
            }
            if (!queue.empty() && queue.front().fiber) {
                const Event ev = wake ? replaceTop(*wake) : pop();
                advanceTo(ev);
                if (ev.fiber == f)
                    return;
                loopFiber = ev.fiber;
                f->handoff(ev.fiber);
                return;
            }
        }
        if (wake)
            pushEvent(*wake);
        f->yield();
    }

    std::vector<Event> queue; ///< 4-ary min-heap on (when, seq)
    Cycles curTime = 0;
    uint64_t nextSeq = 0;
    /** The fiber run() dispatched, directly or by handoff; else null. */
    Fiber* loopFiber = nullptr;
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
