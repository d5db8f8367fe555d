/**
 * @file
 * Cooperative user-level fibers.
 *
 * Each simulated warp runs as one fiber so that device code — including
 * the ActivePointers translation layer and the GPUfs page-fault handler —
 * is ordinary C++ that blocks inside simulator calls (memory accesses,
 * locks, DMA waits) and is resumed by the event engine at the right
 * simulated time.
 *
 * A switch is a short x86-64 SysV routine (fiber.cc): it pushes the
 * callee-saved registers plus MXCSR and the x87 control word onto the
 * outgoing stack, swaps the stack pointer, and pops the same set from
 * the incoming stack. It makes no syscall, so the switch that ends
 * every simulated instruction stays cheap.
 */

#ifndef AP_SIM_FIBER_HH
#define AP_SIM_FIBER_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "util/logging.hh"

namespace ap::sim {

class FiberQueue;

/**
 * A run-to-yield coroutine with its own stack. Not thread-safe: the
 * whole simulation is single-threaded and deterministic by design.
 */
class Fiber
{
  public:
    using Fn = std::function<void()>;

    /**
     * Create a fiber that will execute @p fn when first resumed.
     * @param fn         body of the fiber
     * @param stackBytes stack size; device code with the page-fault
     *                   handler on the stack needs a comfortable margin
     */
    explicit Fiber(Fn fn, size_t stackBytes = 128 * 1024);

    Fiber(const Fiber&) = delete;
    Fiber& operator=(const Fiber&) = delete;

    /**
     * Switch from the scheduler into the fiber. Returns when the fiber
     * yields or its body returns. Must not be called on a finished
     * fiber, or from inside any fiber.
     */
    void resume();

    /** Switch from inside the fiber back to whoever resumed it. */
    void yield();

    /**
     * Switch from inside this fiber straight into @p next, which takes
     * over this fiber's resumer: when @p next yields or finishes,
     * control returns to whoever resumed this fiber. This fiber stays
     * suspended until someone resumes it or hands off to it. The engine
     * uses it to pass control from one warp to the next without a
     * detour through the scheduler stack.
     */
    void handoff(Fiber* next);

    /** True once the fiber body has returned. */
    bool finished() const { return done; }

    /** The fiber currently executing, or nullptr in the scheduler. */
    static Fiber*
    current()
    {
        return current_;
    }

  private:
    friend class FiberQueue;

    static void trampoline(Fiber* f);

    void* selfSp = nullptr; ///< stack pointer of the suspended fiber
    void* retSp = nullptr;  ///< stack pointer of the suspended resumer
    std::unique_ptr<uint8_t[]> stack;
    size_t stackBytes;
    Fn fn;
    Fiber* waitNext = nullptr; ///< next fiber in its FiberQueue
    bool done = false;
    bool queued = false; ///< waiting in some FiberQueue

    // constinit: includers read the thread-local directly, with no TLS
    // wrapper call and no dynamic-initialization check per access.
    static constinit thread_local Fiber* current_;
};

/**
 * The wait queue of a blocking primitive: a FIFO of suspended fibers,
 * linked through the fibers themselves. A fiber waits on at most one
 * queue at a time, so a queue is two pointers and never allocates,
 * however many fibers it holds. Locks, the page cache's staging slots,
 * threadblock barriers and the CPU-centric VM's fault waits all queue
 * their blocked fibers here; the waker pops them in arrival order.
 */
class FiberQueue
{
  public:
    FiberQueue() = default;
    FiberQueue(const FiberQueue&) = delete;
    FiberQueue& operator=(const FiberQueue&) = delete;

    /** Take over @p o's fibers, leaving @p o empty (vectors of locks
     * need it to grow). */
    FiberQueue(FiberQueue&& o) noexcept : head(o.head), tail(o.tail)
    {
        o.head = o.tail = nullptr;
    }

    /** True if no fiber waits here. */
    bool empty() const { return head == nullptr; }

    /** Append @p f; it must not be waiting on any queue. */
    void
    push(Fiber* f)
    {
        AP_ASSERT(!f->queued, "fiber is already waiting on a queue");
        f->queued = true;
        if (tail)
            tail->waitNext = f;
        else
            head = f;
        tail = f;
    }

    /** Remove and return the oldest fiber; the queue must be nonempty. */
    Fiber*
    pop()
    {
        AP_ASSERT(head != nullptr, "pop of an empty fiber queue");
        Fiber* f = head;
        head = f->waitNext;
        if (!head)
            tail = nullptr;
        f->waitNext = nullptr;
        f->queued = false;
        return f;
    }

  private:
    Fiber* head = nullptr;
    Fiber* tail = nullptr;
};

} // namespace ap::sim

#endif // AP_SIM_FIBER_HH
