// aplint: allow-file(leader-only) single-warp test harness: the launched warp is the
// leader by construction, exercising the cache API without an election.

/**
 * @file
 * End-to-end tests for the adaptive readahead subsystem: a full stack
 * (device, host I/O, GPUfs, GvmRuntime) with Config::readahead.enabled,
 * driven through apointers so readahead sees the real warp-aggregated
 * fault stream. Covers the win on sequential scans, quiescence on
 * random access, throttling under frame pressure, poisoned speculative
 * fills, the stand-down under a postFetch hook, eviction preference,
 * determinism, and a simcheck-armed run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/vm.hh"
#include "sim/check/simcheck.hh"

namespace ap::core {
namespace {

using sim::kWarpSize;
using sim::LaneArray;

constexpr uint64_t kWordsPerPage = 4096 / 4;

/** StackFixture variant whose page cache opts into readahead. */
struct RaFixture
{
    explicit RaFixture(bool readahead = true, uint32_t frames = 256,
                       uint32_t confirm = 0)
    {
        cfg.numFrames = frames;
        cfg.readahead.enabled = readahead;
        if (confirm)
            cfg.readahead.confirm = confirm;
        dev = std::make_unique<sim::Device>(sim::CostModel{}, 64 << 20);
        io = std::make_unique<hostio::HostIoEngine>(*dev, bs);
        fs = std::make_unique<gpufs::GpuFs>(*dev, *io, cfg);
        rt = std::make_unique<GvmRuntime>(*fs);
    }

    hostio::FileId
    makeWordFile(const std::string& name, size_t words)
    {
        hostio::FileId f = bs.create(name, words * 4);
        auto* p = bs.data(f, 0, words * 4);
        for (uint32_t i = 0; i < words; ++i)
            std::memcpy(p + i * 4, &i, 4);
        return f;
    }

    uint64_t counter(const std::string& n) { return dev->stats().counter(n); }

    gpufs::Config cfg;
    hostio::BackingStore bs;
    std::unique_ptr<sim::Device> dev;
    std::unique_ptr<hostio::HostIoEngine> io;
    std::unique_ptr<gpufs::GpuFs> fs;
    std::unique_ptr<GvmRuntime> rt;
};

/**
 * Touch the given pages in order through an apointer (one 32-word
 * read per page) and return the accumulated checksum plus the cycles
 * the kernel took.
 */
struct ScanResult
{
    uint64_t sum = 0;
    sim::Cycles cycles = 0;
};

ScanResult
scanPages(RaFixture& fx, hostio::FileId f, uint64_t filePages,
          const std::vector<uint64_t>& order)
{
    ScanResult res;
    res.cycles = fx.dev->launch(1, 1, [&](sim::Warp& w) {
        auto p = gvmmap<uint32_t>(w, *fx.rt, filePages * 4096,
                                  hostio::O_GRDONLY, f, 0);
        p.addPerLane(w, LaneArray<int64_t>::iota(0));
        int64_t cur = 0;
        for (uint64_t page : order) {
            p.add(w, (static_cast<int64_t>(page) - cur) *
                         static_cast<int64_t>(kWordsPerPage));
            cur = static_cast<int64_t>(page);
            auto v = p.read(w);
            res.sum += v[0] + v[kWarpSize - 1];
        }
        p.destroy(w);
    });
    return res;
}

uint64_t
expectedSum(const std::vector<uint64_t>& order)
{
    uint64_t sum = 0;
    for (uint64_t page : order)
        sum += 2 * page * kWordsPerPage + (kWarpSize - 1);
    return sum;
}

std::vector<uint64_t>
seqOrder(uint64_t pages)
{
    std::vector<uint64_t> o(pages);
    for (uint64_t i = 0; i < pages; ++i)
        o[i] = i;
    return o;
}

/**
 * A fixed pseudo-random page permutation (hand-rolled Fisher-Yates
 * over an LCG so the order is identical on every platform and run).
 */
std::vector<uint64_t>
shuffledOrder(uint64_t pages, uint64_t seed)
{
    std::vector<uint64_t> o = seqOrder(pages);
    uint64_t s = seed;
    for (uint64_t i = pages - 1; i > 0; --i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t j = (s >> 33) % (i + 1);
        std::swap(o[i], o[j]);
    }
    return o;
}

TEST(Readahead, SequentialScanIssuesAndHits)
{
    const uint64_t pages = 64;
    RaFixture fx;
    hostio::FileId f = fx.makeWordFile("seq", pages * kWordsPerPage);
    std::vector<uint64_t> order = seqOrder(pages);
    ScanResult r = scanPages(fx, f, pages, order);
    EXPECT_EQ(r.sum, expectedSum(order));
    EXPECT_GT(fx.counter("prefetch.issued"), 0u);
    EXPECT_GT(fx.counter("prefetch.useful"), 0u);
    // Most of the stream is covered by speculation: only the ramp-up
    // head demand-fetches.
    EXPECT_LT(fx.counter("gpufs.major_faults"), pages / 2);
    // Accuracy on a pure sequential scan: nothing speculated inside
    // the file goes to waste (guesses past EOF are never issued
    // because prefetchPage range-checks).
    EXPECT_EQ(fx.counter("prefetch.wasted"), 0u);
}

TEST(Readahead, SequentialScanBeatsDisabled)
{
    const uint64_t pages = 64;
    std::vector<uint64_t> order = seqOrder(pages);

    RaFixture off(false);
    hostio::FileId f0 = off.makeWordFile("seq", pages * kWordsPerPage);
    ScanResult roff = scanPages(off, f0, pages, order);

    RaFixture on(true);
    hostio::FileId f1 = on.makeWordFile("seq", pages * kWordsPerPage);
    ScanResult ron = scanPages(on, f1, pages, order);

    EXPECT_EQ(roff.sum, ron.sum);
    EXPECT_EQ(off.counter("prefetch.issued"), 0u);
    EXPECT_LT(on.counter("gpufs.major_faults"),
              off.counter("gpufs.major_faults"));
    EXPECT_LT(ron.cycles, roff.cycles);
}

TEST(Readahead, RandomAccessStaysWithinNoise)
{
    const uint64_t pages = 256;
    // A shuffled permutation: at the default confirm threshold an
    // accidental stream needs two consecutive consistent deltas,
    // which scattered access almost never produces — speculation
    // stays near-silent and the cycle cost inside the 2% acceptance
    // budget.
    std::vector<uint64_t> order = shuffledOrder(pages, 12345);

    RaFixture off(false);
    hostio::FileId f0 = off.makeWordFile("rnd", pages * kWordsPerPage);
    ScanResult roff = scanPages(off, f0, pages, order);

    RaFixture on(true);
    hostio::FileId f1 = on.makeWordFile("rnd", pages * kWordsPerPage);
    ScanResult ron = scanPages(on, f1, pages, order);

    EXPECT_EQ(ron.sum, expectedSum(order));
    EXPECT_EQ(roff.sum, ron.sum);
    EXPECT_LT(on.counter("prefetch.issued"), pages / 8);
    EXPECT_LE(ron.cycles,
              static_cast<sim::Cycles>(roff.cycles * 1.02));
}

TEST(Readahead, EagerConfirmAdmitsMoreAccidentalStreams)
{
    const uint64_t pages = 256;
    std::vector<uint64_t> order = shuffledOrder(pages, 12345);
    // Dropping to confirm=2 lets any accidental adjacent-page pair
    // open a window: the knob trades detection latency on real
    // streams against noise on scattered access. The eager setting
    // must never speculate less than the default on the same order.
    RaFixture eager(true, 256, /*confirm=*/2);
    hostio::FileId f0 = eager.makeWordFile("rnd", pages * kWordsPerPage);
    ScanResult re = scanPages(eager, f0, pages, order);

    RaFixture dflt(true, 256);
    hostio::FileId f1 = dflt.makeWordFile("rnd", pages * kWordsPerPage);
    ScanResult rd = scanPages(dflt, f1, pages, order);

    EXPECT_EQ(re.sum, expectedSum(order));
    EXPECT_EQ(re.sum, rd.sum);
    EXPECT_GE(eager.counter("prefetch.issued"),
              dflt.counter("prefetch.issued"));
}

TEST(Readahead, ThrottleHoldsSpeculationUnderFramePressure)
{
    const uint64_t pages = 64;
    RaFixture fx(true, /*frames=*/16);
    hostio::FileId f = fx.makeWordFile("seq", pages * kWordsPerPage);
    std::vector<uint64_t> order = seqOrder(pages);
    ScanResult r = scanPages(fx, f, pages, order);
    // The scan completes correctly; once the free pool drains the
    // throttle pins speculation at zero instead of fighting demand
    // for frames.
    EXPECT_EQ(r.sum, expectedSum(order));
    EXPECT_GT(fx.counter("prefetch.throttled"), 0u);
    EXPECT_LE(fx.counter("prefetch.issued"), 16u);
}

TEST(Readahead, PoisonedSpeculativeFillDoesNotBlockDemand)
{
    const uint64_t pages = 24;
    RaFixture fx;
    hostio::FileId f = fx.makeWordFile("seq", pages * kWordsPerPage);
    hostio::FaultInjector inj;
    // Reads of the file's last four pages fail persistently: the
    // stream speculates into the bad range, the app never demands it.
    inj.failReads(f, 20 * 4096, 4 * 4096);
    fx.io->setFaultInjector(&inj);

    std::vector<uint64_t> order = seqOrder(20);
    ScanResult r = scanPages(fx, f, pages, order);
    EXPECT_EQ(r.sum, expectedSum(order));
    EXPECT_GT(fx.counter("prefetch.issued"), 0u);
    EXPECT_EQ(fx.counter("pagecache.fill_errors"), 4u);

    // The crossing at page 11 issued pages 15..23 at window 16. The
    // four poisoned fills halve it to 2 and hold the ramp; the demand
    // hit on page 19, the last good guess, re-arms growth, so the
    // crossing at page 19 doubles it to 4. Without the fill-error
    // feedback the window would be 32; without the hit feedback the
    // crossing would hold it at 2.
    const prefetch::Stream& s = fx.fs->cache().streams().stream(0);
    EXPECT_EQ(s.lastPage, 19u);
    EXPECT_EQ(s.window, 4u);

    // A later demand fault on a poisoned page drains the Error entry
    // and surfaces the failure instead of hanging on the speculative
    // fill.
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        gpufs::AcquireResult a = fx.fs->cache().acquirePage(
            w, gpufs::makePageKey(f, 20), 1, false);
        EXPECT_FALSE(a.ok());
    });
}

TEST(Readahead, StandsDownUnderPostFetchHook)
{
    // Speculative fills complete host-side, where no warp exists to
    // run a postFetch hook (the CryptFS decrypt step). Readahead stands
    // down while one is installed, so every page demand-faults through
    // the hook instead of aborting the run.
    const uint64_t pages = 64;
    uint64_t hooked = 0; // outlives the cache that holds the hook
    RaFixture fx;
    hostio::FileId f = fx.makeWordFile("seq", pages * kWordsPerPage);
    gpufs::PageHooks hooks;
    hooks.postFetch = [&](sim::Warp&, gpufs::PageKey, sim::Addr, size_t) {
        ++hooked;
    };
    fx.fs->cache().setHooks(hooks);

    std::vector<uint64_t> order = seqOrder(pages);
    ScanResult r = scanPages(fx, f, pages, order);
    EXPECT_EQ(r.sum, expectedSum(order));
    EXPECT_EQ(fx.counter("gpufs.major_faults"), pages);
    EXPECT_EQ(fx.counter("prefetch.issued"), 0u);
    EXPECT_EQ(hooked, pages);
}

TEST(Readahead, EvictionPrefersUnusedSpeculativePages)
{
    RaFixture fx(/*readahead=*/false, /*frames=*/8);
    gpufs::PageCache& pc = fx.fs->cache();
    const uint64_t pages = 16;
    hostio::FileId f = fx.makeWordFile("f", pages * kWordsPerPage);

    // Six demand pages (references returned) and two speculative
    // guesses nobody demands.
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        for (uint64_t p = 0; p < 6; ++p) {
            gpufs::AcquireResult a =
                pc.acquirePage(w, gpufs::makePageKey(f, p), 1, false);
            ASSERT_TRUE(a.ok());
            pc.releasePage(w, gpufs::makePageKey(f, p), 1);
        }
        EXPECT_EQ(pc.prefetchPage(w, gpufs::makePageKey(f, 6), true),
                  gpufs::PrefetchResult::Started);
        EXPECT_EQ(pc.prefetchPage(w, gpufs::makePageKey(f, 7), true),
                  gpufs::PrefetchResult::Started);
    });

    // The pool is exhausted (6 demand + 2 speculative = 8 frames); two
    // more demand pages must evict — and must pick the two unused
    // speculative frames, not the demand-touched ones.
    fx.dev->launch(1, 1, [&](sim::Warp& w) {
        for (uint64_t p = 8; p < 10; ++p) {
            gpufs::AcquireResult a =
                pc.acquirePage(w, gpufs::makePageKey(f, p), 1, false);
            ASSERT_TRUE(a.ok());
            pc.releasePage(w, gpufs::makePageKey(f, p), 1);
        }
        // All six demand-touched pages are still resident.
        for (uint64_t p = 0; p < 6; ++p) {
            gpufs::AcquireResult a =
                pc.acquirePage(w, gpufs::makePageKey(f, p), 1, false);
            EXPECT_FALSE(a.majorFault) << "page " << p;
            pc.releasePage(w, gpufs::makePageKey(f, p), 1);
        }
    });
    EXPECT_EQ(fx.counter("prefetch.wasted"), 2u);
    EXPECT_EQ(fx.counter("prefetch.useful"), 0u);
    EXPECT_EQ(fx.counter("gpufs.evictions"), 2u);
}

TEST(Readahead, DeterministicAcrossIdenticalRuns)
{
    const uint64_t pages = 48;
    std::vector<uint64_t> order = seqOrder(pages);
    auto run = [&](RaFixture& fx) {
        hostio::FileId f = fx.makeWordFile("seq", pages * kWordsPerPage);
        return scanPages(fx, f, pages, order);
    };
    RaFixture a;
    RaFixture b;
    ScanResult ra = run(a);
    ScanResult rb = run(b);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.sum, rb.sum);
    for (const char* c : {"prefetch.issued", "prefetch.useful",
                          "prefetch.wasted", "prefetch.throttled",
                          "gpufs.major_faults", "gpufs.minor_faults"})
        EXPECT_EQ(a.counter(c), b.counter(c)) << c;
}

TEST(Readahead, SimcheckArmedSequentialScanIsClean)
{
    namespace chk = sim::check;
    chk::SimCheck& sc = chk::SimCheck::get();
    sc.reset();
    sc.setEnabled(true);
    sc.setFailOnReport(false);

    {
        const uint64_t pages = 32;
        RaFixture fx;
        hostio::FileId f = fx.makeWordFile("seq", pages * kWordsPerPage);
        std::vector<uint64_t> order = seqOrder(pages);
        ScanResult r = scanPages(fx, f, pages, order);
        EXPECT_EQ(r.sum, expectedSum(order));
        EXPECT_GT(fx.counter("prefetch.useful"), 0u);
    }

    EXPECT_EQ(sc.count(chk::ReportKind::Invariant), 0u);
    EXPECT_EQ(sc.count(chk::ReportKind::DataRace), 0u);
    sc.setEnabled(false);
    sc.reset();
}

} // namespace
} // namespace ap::core
