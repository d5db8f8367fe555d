#include "sim/device.hh"

#include <deque>

#include "sim/check/simcheck.hh"
#include "sim/fiber.hh"
#include "util/logging.hh"

namespace ap::sim {

namespace {
/** Engine whose clock stamps simcheck diagnostics (latest Device). */
Engine* checkTimeEngine = nullptr;
} // namespace

Device::Device(const CostModel& cm, size_t mem_bytes)
    : cm_(cm), mem_(mem_bytes, cm), faultpath_(stats_, tracer_)
{
    AP_ASSERT(cm_.numSms > 0, "need at least one SM");
    checkTimeEngine = &eng_;
    check::SimCheck::get().setTimeSource(
        [] { return checkTimeEngine ? checkTimeEngine->now() : 0.0; });
    sms_.reserve(cm_.numSms);
    for (int i = 0; i < cm_.numSms; ++i)
        sms_.emplace_back(cm_.issuePerSmPerCycle);
    tracer_.setStats(&stats_);
}

Device::~Device()
{
    if (checkTimeEngine == &eng_)
        checkTimeEngine = nullptr;
}

/** Bookkeeping for one in-flight launch. */
struct Device::LaunchState
{
    const KernelFn* fn = nullptr;
    const BlockInitFn* blockInit = nullptr;
    int warpsPerBlock = 0;
    int nextBlock = 0;
    int numBlocks = 0;
    int liveWarps = 0;
    int nextGlobalWarp = 0;
    // Keep blocks, warps and fibers alive for the whole launch.
    std::vector<std::unique_ptr<ThreadBlock>> blocks;
    std::vector<std::unique_ptr<Warp>> warps;
    std::vector<std::unique_ptr<Fiber>> fibers;
};

void
Device::tryDispatch(LaunchState& ls)
{
    while (ls.nextBlock < ls.numBlocks) {
        // Pick the least-loaded SM that can host a full block.
        Sm* best = nullptr;
        for (auto& sm : sms_) {
            if (sm.residentWarps + ls.warpsPerBlock > cm_.warpSlotsPerSm)
                continue;
            if (!best || sm.residentWarps < best->residentWarps)
                best = &sm;
        }
        if (!best)
            return;

        int block_id = ls.nextBlock++;
        auto tb = std::make_unique<ThreadBlock>(
            block_id, ls.warpsPerBlock, best, &eng_,
            cm_.scratchBytesPerBlock);
        best->residentWarps += ls.warpsPerBlock;
        if (*ls.blockInit)
            (*ls.blockInit)(*tb);

        for (int wi = 0; wi < ls.warpsPerBlock; ++wi) {
            auto warp = std::make_unique<Warp>(
                ls.nextGlobalWarp++, wi, tb.get(), &mem_, &eng_, &cm_,
                &stats_, simCounters_, faultpath_);
            Warp* wp = warp.get();
            ThreadBlock* tbp = tb.get();
            auto fiber = std::make_unique<Fiber>([this, &ls, wp, tbp] {
                (*ls.fn)(*wp);
                // Warp retires: free its SM slot and try to dispatch
                // a pending block (scheduled as an event so fiber
                // creation happens outside this stack).
                tbp->smRef().residentWarps--;
                ls.liveWarps--;
                eng_.schedule(eng_.now(), [this, &ls] { tryDispatch(ls); });
            });
            // Register as an actor before the launch edge below, so the
            // host's setup writes happen-before the warp's first access.
            if (check::SimCheck::armed)
                check::SimCheck::get().registerFiber(
                    fiber.get(),
                    "warp" + std::to_string(wp->globalWarpId()));
            eng_.scheduleFiber(eng_.now(), fiber.get());
            ls.liveWarps++;
            ls.warps.push_back(std::move(warp));
            ls.fibers.push_back(std::move(fiber));
        }
        ls.blocks.push_back(std::move(tb));
    }
}

Cycles
Device::launch(int num_blocks, int warps_per_block, const KernelFn& fn,
               const BlockInitFn& block_init)
{
    AP_ASSERT(num_blocks > 0 && warps_per_block > 0, "empty launch");
    if (warps_per_block > cm_.warpSlotsPerSm)
        fatal("threadblock of ", warps_per_block,
              " warps exceeds SM capacity ", cm_.warpSlotsPerSm);

    Cycles start = eng_.now();

    LaunchState ls;
    BlockInitFn init = block_init ? block_init : [](ThreadBlock&) {};
    ls.fn = &fn;
    ls.blockInit = &init;
    ls.warpsPerBlock = warps_per_block;
    ls.numBlocks = num_blocks;

    // Model driver launch latency, then start dispatching.
    eng_.schedule(start + cm_.kernelLaunchLatency,
                  [this, &ls] { tryDispatch(ls); });
    eng_.run();

    // No-warp-permanently-blocked auditor: name each warp whose fiber
    // never finished before the deadlock assert below aborts, so a
    // failure-path bug (e.g. an I/O error that never unblocked its
    // waiter) is attributed to the warps it wedged.
    if (check::SimCheck::armed && ls.liveWarps != 0) {
        for (size_t i = 0; i < ls.fibers.size(); ++i)
            if (!ls.fibers[i]->finished())
                check::SimCheck::get().reportHang(
                    "warp" +
                    std::to_string(ls.warps[i]->globalWarpId()));
    }
    AP_ASSERT(ls.liveWarps == 0 && ls.nextBlock == ls.numBlocks,
              "kernel deadlocked: ", ls.liveWarps, " warps never finished");
    // The engine drained, so every fault opened during the launch
    // (including speculative fills) must have closed by now.
    faultpath_.auditClosed(eng_.now());
    stats_.inc("sim.launches");
    tracer_.span(kKernelTrack, "kernel",
                 "launch[" + std::to_string(num_blocks) + "x" +
                     std::to_string(warps_per_block) + "]",
                 start, eng_.now());
    return eng_.now() - start;
}

} // namespace ap::sim
