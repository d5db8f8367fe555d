#include "sim/fiber.hh"

#include <new>

#include "util/logging.hh"

#if !defined(__x86_64__)
#error "the fiber switch in sim/fiber.cc is x86-64 SysV assembly"
#endif

#if defined(__SANITIZE_ADDRESS__)
#define AP_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AP_FIBER_ASAN 1
#endif
#endif

#ifdef AP_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

/*
 * ap_sim_fiber_switch(saveSp, loadSp) pushes the SysV callee-saved state
 * (a SwitchFrame, below), stores rsp to *saveSp, loads rsp from loadSp
 * and pops the same state from there. Its ret thus continues wherever
 * the owner of loadSp last called the switch.
 *
 * ap_sim_fiber_entry is where a new fiber's seeded frame returns to. It
 * calls r13(r12), that is Fiber::trampoline(fiber), with rsp 16-byte
 * aligned at the call. The trampoline never returns, and
 * `.cfi_undefined rip` makes this the outermost frame for unwinders and
 * debuggers.
 */
asm(R"(
    .pushsection .text
    .p2align 4
    .globl ap_sim_fiber_switch
    .hidden ap_sim_fiber_switch
    .type ap_sim_fiber_switch, @function
ap_sim_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_def_cfa_offset 16
    .cfi_offset %rbp, -16
    pushq %rbx
    .cfi_def_cfa_offset 24
    .cfi_offset %rbx, -24
    pushq %r12
    .cfi_def_cfa_offset 32
    .cfi_offset %r12, -32
    pushq %r13
    .cfi_def_cfa_offset 40
    .cfi_offset %r13, -40
    pushq %r14
    .cfi_def_cfa_offset 48
    .cfi_offset %r14, -48
    pushq %r15
    .cfi_def_cfa_offset 56
    .cfi_offset %r15, -56
    subq $16, %rsp
    .cfi_def_cfa_offset 72
    stmxcsr 8(%rsp)
    fnstcw (%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    fldcw (%rsp)
    ldmxcsr 8(%rsp)
    addq $16, %rsp
    .cfi_def_cfa_offset 56
    popq %r15
    .cfi_def_cfa_offset 48
    popq %r14
    .cfi_def_cfa_offset 40
    popq %r13
    .cfi_def_cfa_offset 32
    popq %r12
    .cfi_def_cfa_offset 24
    popq %rbx
    .cfi_def_cfa_offset 16
    popq %rbp
    .cfi_def_cfa_offset 8
    ret
    .cfi_endproc
    .size ap_sim_fiber_switch, .-ap_sim_fiber_switch

    .p2align 4
    .globl ap_sim_fiber_entry
    .hidden ap_sim_fiber_entry
    .type ap_sim_fiber_entry, @function
ap_sim_fiber_entry:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    call *%r13
    ud2
    .cfi_endproc
    .size ap_sim_fiber_entry, .-ap_sim_fiber_entry
    .popsection
)");

extern "C" {
void ap_sim_fiber_switch(void** saveSp, void* loadSp) noexcept;
void ap_sim_fiber_entry() noexcept;
}

namespace ap::sim {

namespace {

/** The frame ap_sim_fiber_switch pushes, lowest address first. */
struct SwitchFrame
{
    uint64_t x87ControlWord;
    uint64_t mxcsr;
    uint64_t r15, r14, r13, r12, rbx, rbp;
    uint64_t returnAddress;
};
static_assert(sizeof(SwitchFrame) == 72, "must match the pushes above");

// Bounds of the stack resume() runs on; every yield and every finished
// fiber lands there. A fiber may be entered from another fiber's stack
// (handoff), so only a switch that resume() flagged teaches them. Only
// ASan reads them.
thread_local const void* schedBottom = nullptr;
thread_local size_t schedSize = 0;
[[maybe_unused]] thread_local bool enteringFromScheduler = false;

/** Tell ASan the thread is about to run on [bottom, bottom + size). */
void
asanStartSwitch([[maybe_unused]] void** fakeStackSave,
                [[maybe_unused]] const void* bottom,
                [[maybe_unused]] size_t size)
{
#ifdef AP_FIBER_ASAN
    __sanitizer_start_switch_fiber(fakeStackSave, bottom, size);
#endif
}

/** asanStartSwitch for resume(): the landing fiber learns this stack. */
void
asanEnterFromScheduler([[maybe_unused]] void** fakeStackSave,
                       [[maybe_unused]] const void* bottom,
                       [[maybe_unused]] size_t size)
{
#ifdef AP_FIBER_ASAN
    enteringFromScheduler = true;
    __sanitizer_start_switch_fiber(fakeStackSave, bottom, size);
#endif
}

/**
 * Tell ASan a switch landed. After a switch resume() flagged, the stack
 * it left is the scheduler's: remember its bounds.
 */
void
asanFinishSwitch([[maybe_unused]] void* fakeStackSave)
{
#ifdef AP_FIBER_ASAN
    const void* bottom = nullptr;
    size_t size = 0;
    __sanitizer_finish_switch_fiber(fakeStackSave, &bottom, &size);
    if (enteringFromScheduler) {
        schedBottom = bottom;
        schedSize = size;
        enteringFromScheduler = false;
    }
#endif
}

} // namespace

constinit thread_local Fiber* Fiber::current_ = nullptr;

Fiber::Fiber(Fn fn_, size_t stackBytes_)
    : stack(new uint8_t[stackBytes_]), stackBytes(stackBytes_),
      fn(std::move(fn_))
{
    // Seed the frame the first resume pops. It "returns" into
    // ap_sim_fiber_entry with r12 = this and r13 = trampoline, under the
    // creator's floating-point control state. The 16 bytes left above
    // it put rsp on a 16-byte boundary at the entry stub's call.
    const uintptr_t top =
        (reinterpret_cast<uintptr_t>(stack.get()) + stackBytes) &
        ~uintptr_t{15};
    auto* frame = new (reinterpret_cast<void*>(top - 16 -
                                               sizeof(SwitchFrame)))
        SwitchFrame{};
    uint16_t fcw = 0;
    uint32_t mxcsr = 0;
    asm volatile("fnstcw %0\n\tstmxcsr %1" : "=m"(fcw), "=m"(mxcsr));
    frame->x87ControlWord = fcw;
    frame->mxcsr = mxcsr;
    frame->r12 = reinterpret_cast<uintptr_t>(this);
    frame->r13 = reinterpret_cast<uintptr_t>(&Fiber::trampoline);
    frame->returnAddress = reinterpret_cast<uintptr_t>(&ap_sim_fiber_entry);
    selfSp = frame;
}

void
Fiber::trampoline(Fiber* f)
{
    asanFinishSwitch(nullptr);
    f->fn();
    f->done = true;
    current_ = nullptr;
    // A null fake-stack save lets ASan free this fiber's fake stack.
    asanStartSwitch(nullptr, schedBottom, schedSize);
    ap_sim_fiber_switch(&f->selfSp, f->retSp);
    panic("a finished fiber was resumed");
}

void
Fiber::resume()
{
    AP_ASSERT(!done, "resume of finished fiber");
    AP_ASSERT(current_ == nullptr, "resume from inside a fiber");
    current_ = this;
    void* fakeStack = nullptr;
    asanEnterFromScheduler(&fakeStack, stack.get(), stackBytes);
    ap_sim_fiber_switch(&retSp, selfSp);
    asanFinishSwitch(fakeStack);
    current_ = nullptr;
}

void
Fiber::yield()
{
    AP_ASSERT(current_ == this, "yield of non-current fiber");
    current_ = nullptr;
    void* fakeStack = nullptr;
    asanStartSwitch(&fakeStack, schedBottom, schedSize);
    ap_sim_fiber_switch(&selfSp, retSp);
    asanFinishSwitch(fakeStack);
    current_ = this;
}

void
Fiber::handoff(Fiber* next)
{
    AP_ASSERT(current_ == this, "handoff from non-current fiber");
    AP_ASSERT(next != this && !next->done, "handoff to ",
              next == this ? "itself" : "a finished fiber");
    next->retSp = retSp;
    current_ = next;
    void* fakeStack = nullptr;
    asanStartSwitch(&fakeStack, next->stack.get(), next->stackBytes);
    ap_sim_fiber_switch(&selfSp, next->selfSp);
    asanFinishSwitch(fakeStack);
    current_ = this;
}

} // namespace ap::sim
