/**
 * @file
 * Allocation counts of the simulator's set-up and blocking paths. The
 * binary replaces the global operator new with a counting one, so each
 * case can assert how many heap blocks a construction or a wait makes:
 * building a cache, a page table or a TLB costs a fixed number of
 * blocks whatever its size, and a lock, barrier or staging-slot wait
 * and a recorded fault cost none.
 */

#include <cstdlib>
#include <new>
#include <optional>

#include <gtest/gtest.h>

#include "core/vm.hh"
#include "sim/check/simcheck.hh"
#include "sim/device.hh"
#include "sim/faultpath.hh"
#include "sim/sync.hh"

namespace {

uint64_t gAllocs = 0;

void*
countedAlloc(std::size_t n)
{
    ++gAllocs;
    return std::malloc(n ? n : 1);
}

} // namespace

void*
operator new(std::size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ap {
namespace {

/** Heap blocks allocated while @p fn runs. */
template <typename Fn>
uint64_t
allocsDuring(Fn&& fn)
{
    const uint64_t before = gAllocs;
    fn();
    return gAllocs - before;
}

/**
 * Simcheck's shadow state allocates on purpose, so every case counts
 * the simulator alone: the fixture turns simcheck off for the case and
 * restores it afterwards (an AP_SIMCHECK=1 run still runs each case).
 */
class AllocFree : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasOn = sim::check::SimCheck::get().enabled();
        sim::check::SimCheck::get().setEnabled(false);
    }

    void
    TearDown() override
    {
        sim::check::SimCheck::get().setEnabled(wasOn);
    }

    bool wasOn = false;
};

/** Device, host IO and backing store, ready for a page cache. */
struct Host
{
    Host()
        : dev(sim::CostModel{}, size_t(64) << 20), io(dev, bs)
    {
    }

    hostio::BackingStore bs;
    sim::Device dev;
    hostio::HostIoEngine io;
};

/** Heap blocks a page cache (and its page table) of @p frames costs. */
uint64_t
cacheBuildAllocs(uint32_t frames)
{
    Host h;
    gpufs::Config cfg;
    cfg.numFrames = frames;
    std::optional<gpufs::PageCache> cache;
    return allocsDuring([&] { cache.emplace(h.dev, h.io, cfg); });
}

TEST_F(AllocFree, PageCacheBuildDoesNotScaleWithFrames)
{
    // Two bucket locks per frame: a lock that allocated would make the
    // big cache cost thousands of blocks more. The first cache of the
    // process may also set up process-wide state, so it is not
    // compared.
    cacheBuildAllocs(64);
    const uint64_t small = cacheBuildAllocs(64);
    const uint64_t big = cacheBuildAllocs(4096);
    EXPECT_EQ(small, big);
}

TEST_F(AllocFree, DeviceLockConstructionAllocatesNothing)
{
    EXPECT_EQ(allocsDuring([] { sim::DeviceLock lock{"test.lock"}; }), 0u);
}

TEST_F(AllocFree, ContendedLockHandoffAllocatesNothing)
{
    // Two rounds of warp 1 queueing behind warp 0; the first resolves
    // the lock counters' stat handles, the second is measured. Warp 0
    // outlives the measurement, so its retirement is not counted.
    sim::Device dev(sim::CostModel{}, 1 << 20);
    sim::DeviceLock lock{"test.lock"};
    uint64_t start = 0, end = 0;
    dev.launch(1, 2, [&](sim::Warp& w) {
        for (int round = 0; round < 2; ++round) {
            w.waitUntil(round * 10000 + (w.warpInBlock() == 0 ? 0 : 100));
            if (w.warpInBlock() == 0) {
                lock.acquire(w);
                w.stall(1000);
                lock.release(w);
            } else {
                start = gAllocs;
                lock.acquire(w); // queues behind warp 0, takes the handoff
                end = gAllocs;
                EXPECT_GT(w.now(), round * 10000 + 1000);
                lock.release(w);
            }
        }
        w.stall(100000);
    });
    EXPECT_EQ(end - start, 0u);
}

TEST_F(AllocFree, FirstBarrierAllocatesNothing)
{
    // From the first arrival until the last one has woken the others.
    sim::Device dev(sim::CostModel{}, 1 << 20);
    uint64_t start = 0, end = 0;
    int arrivals = 0, departures = 0;
    dev.launch(1, 8, [&](sim::Warp& w) {
        if (arrivals++ == 0)
            start = gAllocs;
        w.block().barrier();
        if (departures++ == 0)
            end = gAllocs;
    });
    EXPECT_EQ(departures, 8);
    EXPECT_EQ(end - start, 0u);
}

/**
 * The warp, the leader of itself, major-faults @p key and drops the
 * reference again.
 */
void
majorFault(sim::Warp& w, gpufs::PageCache& cache, gpufs::PageKey key)
    AP_ELECTS_LEADER
{
    gpufs::AcquireResult r = cache.acquirePage(w, key, 1, false);
    EXPECT_TRUE(r.majorFault);
    cache.releasePage(w, key, 1);
}

/**
 * Two warps major-fault one page each through a single staging slot,
 * warp 1 starting @p gap cycles after warp 0. A warm-up launch first
 * does the same with a gap of 1, so every device-wide stat handle the
 * measured launch charges has already found its slot.
 * @param[out] second_fault cycles warp 1's measured fault took
 * @return heap blocks the measured launch allocated
 */
uint64_t
faultPairAllocs(sim::Cycles gap, sim::Cycles& second_fault)
{
    Host h;
    gpufs::Config cfg;
    cfg.stagingSlots = 1;
    gpufs::PageCache cache(h.dev, h.io, cfg);
    const hostio::FileId f = h.bs.create("f", 4 * gpufs::kPageBytes);
    auto pair = [&](uint64_t first_page, sim::Cycles g) {
        h.dev.launch(1, 2, [&](sim::Warp& w) {
            const int id = w.warpInBlock();
            w.stall(1 + id * g);
            const sim::Cycles t0 = w.now();
            majorFault(w, cache, gpufs::makePageKey(f, first_page + id));
            if (id == 1)
                second_fault = w.now() - t0;
        });
    };
    pair(0, 1);
    return allocsDuring([&] { pair(2, gap); });
}

TEST_F(AllocFree, StagingSlotWaitAllocatesNothing)
{
    // Far apart, warp 1 finds the slot free; close together, it waits
    // for warp 0 to hand the slot over. Both runs make the same calls
    // but the wait, so equal counts mean the wait allocated nothing.
    sim::Cycles apart = 0, waited = 0;
    const uint64_t free_slot = faultPairAllocs(1'000'000, apart);
    const uint64_t handoff = faultPairAllocs(1, waited);
    EXPECT_GT(waited, apart); // the second run really waited
    EXPECT_EQ(free_slot, handoff);
}

TEST_F(AllocFree, WarmFaultRecordAllocatesNothing)
{
    StatGroup st;
    sim::Tracer tr;
    sim::FaultPath fp(st, tr);
    auto fault = [&] {
        const uint64_t id = fp.begin(0, 1, 2, 10);
        fp.stamp(id, sim::FaultStage::Lookup, 12);
        fp.stamp(id, sim::FaultStage::Alloc, 15);
        fp.stamp(id, sim::FaultStage::Fill, 20);
        fp.end(id, sim::FaultKind::Major, 30);
    };
    fault(); // the first charge of each handle finds its slot
    EXPECT_EQ(allocsDuring(fault), 0u);

    // More faults open at once than the recorder started with: once it
    // has grown, a fault still costs nothing.
    std::vector<uint64_t> open;
    for (int i = 0; i < 100; ++i)
        open.push_back(fp.begin(0, 1, i, 40));
    for (uint64_t id : open)
        fp.end(id, sim::FaultKind::Major, 50);
    EXPECT_EQ(allocsDuring(fault), 0u);
    EXPECT_EQ(fp.openCount(), 0u);
}

/** Heap blocks the first tlbFor of a runtime with @p entries costs. */
uint64_t
tlbBuildAllocs(uint32_t entries)
{
    core::GvmConfig gcfg;
    gcfg.useTlb = true;
    gcfg.tlbEntries = entries;
    Host h;
    gpufs::GpuFs fs(h.dev, h.io, gpufs::Config{});
    core::GvmRuntime rt(fs, gcfg);
    uint64_t n = 0;
    h.dev.launch(1, 1, [&](sim::Warp& w) {
        n = allocsDuring([&] { rt.tlbFor(w); });
    });
    return n;
}

TEST_F(AllocFree, TlbBuildDoesNotScaleWithEntries)
{
    EXPECT_EQ(tlbBuildAllocs(32), tlbBuildAllocs(512));
}

} // namespace
} // namespace ap
