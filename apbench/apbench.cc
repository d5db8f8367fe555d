/**
 * @file
 * apbench, the repository benchmark program. One process runs one seeded
 * workload (apbench/BENCHMARK.md gives the reasons for each):
 *
 *   serve      open-loop Poisson collage/LSH and scan requests through
 *              serving::serve on a cold page cache;
 *   translate  fresh unlinked apointer accesses to a resident file
 *              through a 32-entry TLB, high reuse then thrash;
 *   stream-rw  sequential read-modify-write rows over a file 8x the
 *              page cache, readahead on, then flushDirtyHost;
 *   hitpath    linked apointer reads of raw device memory at full
 *              occupancy (the Table II / Fig. 6a hit path).
 *
 * A repetition builds the stack and inputs (set-up), runs the measured
 * calls, and checks every output against a host oracle. Repetitions
 * repeat until --seconds have passed; host times are their medians,
 * and every repetition must reproduce the first one's simulated
 * numbers exactly. Each metric prints as "name value unit". With
 * --trace <dir>, half of the time goes to untraced repetitions and the
 * rest to traced ones; the first traced repetition writes
 * <dir>/trace.json (Chrome trace) and <dir>/layers.txt.
 *
 * Usage: apbench --workload <name> [--seed <n>] [--seconds <s>] [--smoke]
 *                [--trace <dir>] [--json <path>] [--corrupt]
 *
 * The seed defaults to 1.
 *
 * --smoke shrinks every workload; --json writes the untraced end-to-end
 * metrics as an ap-bench-result document for `apstat diff`; --corrupt
 * perturbs the oracle's expected values, so the run must fail. Exit
 * status is nonzero on any failed check.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>

#include "bench_common.hh"
#include "recorder.hh"
#include "serving/serving.hh"

namespace ap::apbench {
namespace {

using bench::Stack;
using sim::Cycles;
using sim::kWarpSize;
using sim::LaneArray;

constexpr uint64_t kPage = 4096;
constexpr uint64_t kWordsPerPage = kPage / 4;
constexpr uint64_t kRowBytes = kWarpSize * 4;
constexpr uint64_t kRowsPerPage = kPage / kRowBytes;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;
    bool smoke = false;
    bool corrupt = false;
    std::string traceDir;
    std::string jsonPath;
};

/** A metric value with its unit. */
struct Value
{
    double v = 0;
    std::string unit;
};

/** What one repetition measured. */
struct Rep
{
    /** Host seconds of each phase. */
    double stack = 0;
    double inputs = 0;
    double warm = 0;
    double run = 0;
    double verify = 0;
    /** Host seconds of the reference kernel run just before. */
    double ref = 0;

    /** Simulated numbers: identical in every repetition of a seed. */
    Cycles simCycles = 0;
    double latP50 = 0;
    double latP99 = 0;
    std::map<std::string, Value> layer;

    /** Outputs checked against the oracle, and how many disagreed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    put(const std::string& name, double v, const char* unit)
    {
        layer[name] = Value{v, unit};
    }
};

/** SplitMix64's finalizer: the seeded content of every input. */
uint64_t
mix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Word @p i of a seeded input file. */
uint32_t
fileWord(uint64_t seed, uint64_t i)
{
    return static_cast<uint32_t>(mix(seed * 0x100000001B3ULL + i));
}

/** FNV-1a over one warp's 32 lane values. */
uint64_t
foldLanes(const LaneArray<uint32_t>& v)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (int l = 0; l < kWarpSize; ++l)
        h = (h ^ v[l]) * 0x100000001B3ULL;
    return h;
}

/** What the oracle expects for @p v: @p v itself, or a perturbed value
 * under --corrupt so that every check must fail. */
uint32_t
expect(const Options& o, uint32_t v)
{
    return o.corrupt ? v ^ 1u : v;
}

/** Linear-interpolated quantile of sorted @p v. */
double
quantile(const std::vector<double>& v, double q)
{
    if (v.empty())
        return 0;
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return quantile(v, 0.5);
}

/**
 * The per-layer numbers every workload reports: the program's own
 * counters and fault-path histograms from @p s, plus the simulated
 * call spans from @p rec.
 */
void
layerMetrics(const StatGroup& s, const Recorder& rec, Rep& r)
{
    auto c = [&](const std::string& n) { return double(s.counter(n)); };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto hmean = [&](const char* n) {
        const Histogram* h = s.findHistogram(n);
        return h ? h->mean() : 0.0;
    };
    auto hsum = [&](const char* n) {
        const Histogram* h = s.findHistogram(n);
        return h ? h->sum() : 0.0;
    };

    // sim
    r.put("sim.instructions", c("sim.instructions"), "count");
    r.put("sim.lock_acquires", c("sim.lock_acquires"), "count");
    r.put("sim.lock_contended_frac",
          ratio(c("sim.lock_contended"), c("sim.lock_acquires")), "frac");
    r.put("sim.dram_read_bytes", c("sim.dram_read_bytes"), "B");
    r.put("sim.dram_write_bytes", c("sim.dram_write_bytes"), "B");

    // core
    r.put("core.fault_entries", c("core.fault_entries"), "count");
    r.put("core.pages_linked", c("core.pages_linked"), "count");
    double hits = c("core.tlb_hits");
    r.put("core.tlb_hit_frac", ratio(hits, hits + c("core.tlb_misses")),
          "frac");
    double evicted = 0;
    double doa = 0;
    for (const char* why :
         {"conflict", "invalidation", "shootdown", "teardown"}) {
        evicted += c(std::string("tlb.evict.") + why);
        doa += c(std::string("tlb.doa.") + why);
    }
    r.put("core.tlb_doa_frac", ratio(doa, evicted), "frac");
    r.put("tlb.inserts", c("tlb.inserts"), "count");
    r.put("core.read_fault_cycles", rec.agg(Span::ReadFault).mean(),
          "cycles");
    r.put("core.read_linked_cycles", rec.agg(Span::ReadLinked).mean(),
          "cycles");
    r.put("core.write_cycles", rec.agg(Span::Write).mean(), "cycles");
    r.put("core.destroy_cycles", rec.agg(Span::Destroy).mean(), "cycles");

    // gpufs
    double majors = c("gpufs.major_faults");
    double minors = c("gpufs.minor_faults");
    r.put("gpufs.major_faults", majors, "count");
    r.put("gpufs.hit_frac", ratio(minors, minors + majors), "frac");
    r.put("gpufs.evictions", c("gpufs.evictions"), "count");
    r.put("gpufs.writebacks", c("gpufs.writebacks"), "count");
    r.put("faultpath.major.alloc", hmean("faultpath.major.alloc"),
          "cycles");
    r.put("faultpath.major.fill", hmean("faultpath.major.fill"), "cycles");

    // hostio
    r.put("hostio.reqs_per_transfer",
          ratio(c("hostio.read_requests") + c("hostio.write_requests"),
                c("hostio.transfers")),
          "ratio");
    r.put("hostio.read_bytes", c("hostio.read_bytes"), "B");
    r.put("hostio.write_bytes", c("hostio.write_bytes"), "B");
    r.put("faultpath.major.enqueue", hmean("faultpath.major.enqueue"),
          "cycles");
    r.put("faultpath.major.queue_wait",
          hmean("faultpath.major.queue_wait"), "cycles");
    r.put("faultpath.major.transfer", hmean("faultpath.major.transfer"),
          "cycles");
    r.put("hostio.retries", c("hostio.retries"), "count");
    r.put("hostio.failures", c("hostio.failures"), "count");

    // prefetch
    double issued = c("prefetch.issued");
    r.put("prefetch.issued", issued, "count");
    r.put("prefetch.useful", c("prefetch.useful"), "count");
    r.put("prefetch.late", c("prefetch.late"), "count");
    r.put("prefetch.throttled", c("prefetch.throttled"), "count");
    r.put("prefetch.accuracy", ratio(c("prefetch.useful"), issued),
          "frac");

    // serving
    r.put("serving.queue_wait_cycles", hmean("serving.queue_wait"),
          "cycles");
    r.put("serving.service_cycles", hmean("serving.service"), "cycles");
    r.put("serving.io_deferrals", c("serving.io_deferrals"), "count");
    r.put("serving.shed", c("serving.shed"), "count");

    // fault-path cycles summed per owning layer
    for (const char* sub : {"core", "gpufs", "hostio", "sim"}) {
        std::string n = std::string("faultpath.subsys.") + sub;
        r.put(n, hsum(n.c_str()), "cycles");
    }

    // Only stream-rw observes writebacks; it overwrites this.
    r.put("gpufs.wasted_writeback_frac", 0, "frac");
}

/** End-to-end latency from the recorder's per-operation samples. */
void
opLatency(Recorder& rec, Rep& r)
{
    std::vector<double>& v = rec.opCycles();
    std::sort(v.begin(), v.end());
    r.latP50 = quantile(v, 0.50);
    r.latP99 = quantile(v, 0.99);
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

Rep
runServe(const Options& o, Recorder& rec)
{
    Rep r;
    collage::Dataset ds;
    serving::ServingWorkload wl;
    std::unique_ptr<Stack> st;
    {
        HostSpan h(rec, Span::SetupStack, &r.stack);
        gpufs::Config fscfg;
        fscfg.numFrames = 4096;
        st = std::make_unique<Stack>(core::GvmConfig{}, fscfg,
                                     size_t(64) << 20);
    }
    {
        HostSpan h(rec, Span::SetupInputs, &r.inputs);
        collage::DatasetParams dp;
        dp.numImages = o.smoke ? 512 : 2048;
        dp.numBuckets = o.smoke ? 128 : 256;
        dp.seed = 42;
        ds = collage::Dataset::build(st->bs, dp);
        wl = serving::makeWorkload(st->bs, ds, o.smoke ? 128u : 512u, 7);
    }
    // serve() schedules arrivals from cycle 0: it must be the device's
    // first launch, so there is no warm-up.
    for (uint32_t& e : wl.expected)
        e = expect(o, e);

    serving::ServingConfig cfg;
    cfg.arrival = serving::Arrival::Poisson;
    cfg.arrivals.meanGapCycles = 2500;
    cfg.clients = 2048;
    cfg.requests = o.smoke ? 128 : 4096;
    cfg.scanEvery = 8;
    cfg.scanBytes = 16384;
    cfg.ioDepthCap = 16;
    cfg.numBlocks = 8;
    cfg.warpsPerBlock = 8;
    cfg.seed = o.seed;

    serving::ServingResult res;
    {
        HostSpan run(rec, Span::Run, &r.run);
        HostSpan call(rec, Span::Serve);
        res = serving::serve(*st->rt, ds, wl, cfg);
    }
    {
        HostSpan h(rec, Span::Verify, &r.verify);
        uint64_t resolved = uint64_t(res.completed) + res.shed;
        r.attempted = cfg.requests;
        r.failed = res.validationErrors + res.shed +
                   (cfg.requests > resolved ? cfg.requests - resolved : 0);
    }
    r.simCycles = res.elapsed;
    r.latP50 = res.e2eP50;
    r.latP99 = res.e2eP99;
    layerMetrics(st->dev->stats(), rec, r);
    return r;
}

// ---------------------------------------------------------------------
// translate
// ---------------------------------------------------------------------

constexpr int kTrBlocks = 4;
constexpr int kTrWarps = 32;
constexpr int kTrWarpsTotal = kTrBlocks * kTrWarps;
constexpr uint64_t kTrPages = 512;
constexpr uint64_t kTrReusePages = 8;

Rep
runTranslate(const Options& o, Recorder& rec)
{
    const uint32_t accesses = o.smoke ? 16 : 96;
    const uint64_t bytes = kTrPages * kPage;

    Rep r;
    std::vector<uint32_t> words(kTrPages * kWordsPerPage);
    // Page sequences per launch: [0] reuses pages 0-7, [1] thrashes
    // all 512; the seed sets the order.
    std::vector<uint32_t> seqs[2];
    std::vector<uint64_t> folds(2 * size_t(kTrWarpsTotal) * accesses);
    uint64_t status_errors = 0;
    hostio::FileId f = -1;
    std::unique_ptr<Stack> st;
    {
        HostSpan h(rec, Span::SetupStack, &r.stack);
        core::GvmConfig g;
        g.useTlb = true;
        g.tlbEntries = 32;
        gpufs::Config fscfg;
        fscfg.numFrames = 1024;
        st = std::make_unique<Stack>(g, fscfg, size_t(16) << 20);
    }
    {
        HostSpan h(rec, Span::SetupInputs, &r.inputs);
        for (size_t i = 0; i < words.size(); ++i)
            words[i] = fileWord(o.seed, i);
        f = st->bs.create("translate.bin", bytes);
        st->bs.pwrite(f, words.data(), bytes, 0);

        SplitMix64 rng(o.seed ^ 0x7472616E736CULL);
        for (size_t k = 0; k < size_t(kTrWarpsTotal) * accesses; ++k) {
            seqs[0].push_back(
                static_cast<uint32_t>(rng.nextBounded(kTrReusePages)));
            seqs[1].push_back(
                static_cast<uint32_t>(rng.nextBounded(kTrPages)));
        }
    }
    // Lane l of warp w reads word 32w + l of its page: distinct words
    // per warp, as in Fig. 7.
    auto word_of = [](int warp_in_block, int lane) {
        return uint64_t(warp_in_block) * kWarpSize + uint64_t(lane);
    };
    {
        // Pre-fault every page so the measured phase does no host IO.
        HostSpan h(rec, Span::SetupWarm, &r.warm);
        HostSpan call(rec, Span::Launch);
        st->dev->launch(kTrBlocks, kTrWarps, [&](sim::Warp& w) {
            auto p = core::gvmmap<uint32_t>(w, *st->rt, bytes,
                                            hostio::O_GRDONLY, f, 0);
            for (uint64_t pg = w.globalWarpId(); pg < kTrPages;
                 pg += kTrWarpsTotal) {
                auto q = p.copyUnlinked(w);
                q.add(w, int64_t(pg * kWordsPerPage));
                (void)q.read(w);
                if (q.status() != hostio::IoStatus::Ok)
                    status_errors++;
                q.destroy(w);
            }
            p.destroy(w);
        });
    }
    st->dev->stats().reset();

    {
        HostSpan run(rec, Span::Run, &r.run);
        for (int launch = 0; launch < 2; ++launch) {
            HostSpan call(rec, Span::Launch);
            r.simCycles += st->dev->launch(
                kTrBlocks, kTrWarps, [&](sim::Warp& w) {
                    const size_t base =
                        size_t(w.globalWarpId()) * accesses;
                    const uint32_t* seq = seqs[launch].data() + base;
                    uint64_t* out =
                        folds.data() +
                        size_t(launch) * kTrWarpsTotal * accesses + base;
                    auto p = core::gvmmap<uint32_t>(
                        w, *st->rt, bytes, hostio::O_GRDONLY, f, 0);
                    for (uint32_t i = 0; i < accesses; ++i) {
                        rec.opBegin(w, uint32_t(launch) * accesses + i);
                        auto q = rec.call(w, Span::CopyUnlinked,
                                          [&] { return p.copyUnlinked(w); });
                        LaneArray<int64_t> seek;
                        for (int l = 0; l < kWarpSize; ++l)
                            seek[l] = int64_t(seq[i] * kWordsPerPage +
                                              word_of(w.warpInBlock(), l));
                        rec.call(w, Span::Add,
                                 [&] { q.addPerLane(w, seek); });
                        LaneArray<uint32_t> v = rec.read(w, q);
                        if (q.status() != hostio::IoStatus::Ok)
                            status_errors++;
                        rec.call(w, Span::Destroy, [&] { q.destroy(w); });
                        rec.opEnd(w);
                        out[i] = foldLanes(v);
                    }
                    p.destroy(w);
                });
        }
    }
    {
        HostSpan h(rec, Span::Verify, &r.verify);
        r.attempted = folds.size();
        r.failed = status_errors;
        for (int launch = 0; launch < 2; ++launch) {
            for (int gid = 0; gid < kTrWarpsTotal; ++gid) {
                for (uint32_t i = 0; i < accesses; ++i) {
                    size_t k = size_t(gid) * accesses + i;
                    LaneArray<uint32_t> want;
                    for (int l = 0; l < kWarpSize; ++l)
                        want[l] = expect(
                            o, words[seqs[launch][k] * kWordsPerPage +
                                     word_of(gid % kTrWarps, l)]);
                    if (folds[size_t(launch) * kTrWarpsTotal * accesses +
                              k] != foldLanes(want))
                        r.failed++;
                }
            }
        }
    }
    opLatency(rec, r);
    layerMetrics(st->dev->stats(), rec, r);
    return r;
}

// ---------------------------------------------------------------------
// stream-rw
// ---------------------------------------------------------------------

constexpr int kSrBlocks = 4;
constexpr int kSrWarps = 4;
constexpr int kSrWarpsTotal = kSrBlocks * kSrWarps;

Rep
runStream(const Options& o, Recorder& rec)
{
    const uint64_t pages_per_warp = o.smoke ? 16 : 64;
    const uint64_t pages = pages_per_warp * kSrWarpsTotal;
    const uint64_t rows_per_warp = pages_per_warp * kRowsPerPage;
    const uint64_t bytes = pages * kPage;

    Rep r;
    std::vector<uint32_t> words(pages * kWordsPerPage);
    std::vector<uint8_t> written(pages);
    std::vector<uint64_t> folds(pages * kRowsPerPage);
    uint64_t status_errors = 0;
    uint64_t evict_writebacks = 0;
    uint64_t wasted_writebacks = 0;
    hostio::FileId f = -1;
    std::unique_ptr<Stack> st;
    {
        HostSpan h(rec, Span::SetupStack, &r.stack);
        gpufs::Config fscfg;
        // The file is 8x the page cache: every page is evicted.
        fscfg.numFrames = static_cast<uint32_t>(pages / 8);
        fscfg.readahead.enabled = true;
        fscfg.readahead.streams = 2 * kSrWarpsTotal;
        st = std::make_unique<Stack>(core::GvmConfig{}, fscfg,
                                     size_t(8) << 20);
    }
    {
        HostSpan h(rec, Span::SetupInputs, &r.inputs);
        for (size_t i = 0; i < words.size(); ++i)
            words[i] = fileWord(o.seed, i);
        f = st->bs.create("stream.bin", bytes);
        st->bs.pwrite(f, words.data(), bytes, 0);
        // A seeded half of the pages is written.
        std::vector<uint64_t> order(pages);
        for (uint64_t i = 0; i < pages; ++i)
            order[i] = i;
        SplitMix64 rng(o.seed ^ 0x73747265616DULL);
        for (uint64_t i = pages - 1; i > 0; --i)
            std::swap(order[i], order[rng.nextBounded(i + 1)]);
        for (uint64_t i = 0; i < pages / 2; ++i)
            written[order[i]] = 1;
        // Count eviction writebacks of pages the workload never wrote.
        gpufs::PageHooks hooks;
        hooks.preWriteback = [&](sim::Warp* w, gpufs::PageKey key,
                                 sim::Addr, size_t) {
            if (!w)
                return; // flushDirtyHost, not an eviction
            evict_writebacks++;
            if (!written[gpufs::pageKeyPageNo(key)])
                wasted_writebacks++;
        };
        st->fs->cache().setHooks(hooks);
    }
    {
        HostSpan run(rec, Span::Run, &r.run);
        {
            HostSpan call(rec, Span::Launch);
            r.simCycles = st->dev->launch(
                kSrBlocks, kSrWarps, [&](sim::Warp& w) {
                    const uint64_t gid = uint64_t(w.globalWarpId());
                    auto p = core::gvmmap<uint32_t>(
                        w, *st->rt, bytes, hostio::O_GRDWR, f, 0);
                    rec.call(w, Span::Add, [&] {
                        p.addPerLane(w, LaneArray<int64_t>::iota(int64_t(
                                            gid * pages_per_warp *
                                            kWordsPerPage)));
                    });
                    for (uint64_t i = 0; i < rows_per_warp; ++i) {
                        const uint64_t page =
                            gid * pages_per_warp + i / kRowsPerPage;
                        rec.opBegin(w, uint32_t(i));
                        LaneArray<uint32_t> v = rec.read(w, p);
                        folds[gid * rows_per_warp + i] = foldLanes(v);
                        if (written[page]) {
                            w.issue(1); // v + 1
                            for (int l = 0; l < kWarpSize; ++l)
                                v[l] += 1;
                            rec.call(w, Span::Write,
                                     [&] { p.write(w, v); });
                        }
                        if (i + 1 < rows_per_warp)
                            rec.call(w, Span::Add,
                                     [&] { p.add(w, kWarpSize); });
                        rec.opEnd(w);
                    }
                    if (p.status() != hostio::IoStatus::Ok)
                        status_errors++;
                    rec.call(w, Span::Destroy, [&] { p.destroy(w); });
                });
        }
        HostSpan call(rec, Span::Flush);
        st->fs->cache().flushDirtyHost();
    }
    {
        HostSpan h(rec, Span::Verify, &r.verify);
        r.attempted = folds.size();
        r.failed = status_errors;
        const uint32_t* file =
            reinterpret_cast<const uint32_t*>(st->bs.data(f, 0, bytes));
        for (uint64_t row = 0; row < folds.size(); ++row) {
            const uint64_t w0 = row * kWarpSize;
            const uint32_t add = written[row / kRowsPerPage] ? 1 : 0;
            LaneArray<uint32_t> want;
            bool ok = true;
            for (int l = 0; l < kWarpSize; ++l) {
                want[l] = expect(o, words[w0 + l]);
                uint32_t stored = 0;
                std::memcpy(&stored, file + w0 + l, 4);
                ok = ok && stored == expect(o, words[w0 + l] + add);
            }
            if (!ok || folds[row] != foldLanes(want))
                r.failed++;
        }
    }
    opLatency(rec, r);
    layerMetrics(st->dev->stats(), rec, r);
    r.put("gpufs.wasted_writeback_frac",
          evict_writebacks ? double(wasted_writebacks) / evict_writebacks
                           : 0.0,
          "frac");
    return r;
}

// ---------------------------------------------------------------------
// hitpath
// ---------------------------------------------------------------------

constexpr int kHpBlocks = 26;
constexpr int kHpWarps = 32;
constexpr int kHpWarpsTotal = kHpBlocks * kHpWarps;

Rep
runHitpath(const Options& o, Recorder& rec)
{
    const uint64_t rows = o.smoke ? 16 : 64;
    // Each warp's slice starts at a seeded row of a page-aligned
    // region one page longer than the slice.
    const uint64_t region_rows = rows + kRowsPerPage;
    const uint64_t bytes = kHpWarpsTotal * region_rows * kRowBytes;

    Rep r;
    std::vector<uint64_t> start(kHpWarpsTotal);
    std::vector<LaneArray<uint64_t>> sums(kHpWarpsTotal);
    uint64_t a = 0;
    uint64_t b = 0;
    sim::Addr buf = 0;
    std::unique_ptr<Stack> st;
    {
        HostSpan h(rec, Span::SetupStack, &r.stack);
        gpufs::Config fscfg;
        fscfg.numFrames = 64; // the page cache is not used
        st = std::make_unique<Stack>(core::GvmConfig{}, fscfg,
                                     bytes + (size_t(4) << 20));
    }
    {
        HostSpan h(rec, Span::SetupInputs, &r.inputs);
        // Word i holds a*i + b (below 2^32 for every i), so each lane's
        // sum has a closed form.
        SplitMix64 rng(o.seed ^ 0x6869747061ULL);
        a = 1 + rng.nextBounded(512);
        b = rng.nextBounded(1u << 20);
        buf = st->dev->mem().alloc(bytes, kPage);
        uint8_t* raw = st->dev->mem().raw(buf, bytes);
        for (uint64_t i = 0; i < bytes / 4; ++i) {
            uint32_t v = static_cast<uint32_t>(a * i + b);
            std::memcpy(raw + 4 * i, &v, 4);
        }
        for (int gid = 0; gid < kHpWarpsTotal; ++gid)
            start[gid] = (uint64_t(gid) * region_rows +
                          rng.nextBounded(kRowsPerPage)) *
                         kWarpSize;
    }
    {
        HostSpan run(rec, Span::Run, &r.run);
        HostSpan call(rec, Span::Launch);
        r.simCycles = st->dev->launch(
            kHpBlocks, kHpWarps, [&](sim::Warp& w) {
                const int gid = w.globalWarpId();
                auto p = core::AptrVec<uint32_t>::mapDirect(
                    w, *st->rt, buf, bytes, core::kPermRead);
                rec.call(w, Span::Add, [&] {
                    p.addPerLane(w, LaneArray<int64_t>::iota(
                                        int64_t(start[gid])));
                });
                LaneArray<uint64_t> sum{};
                for (uint64_t pass = 0; pass < 2; ++pass) {
                    for (uint64_t row = 0; row < rows; ++row) {
                        rec.opBegin(w, uint32_t(pass * rows + row));
                        LaneArray<uint32_t> v = rec.read(w, p);
                        w.issue(2); // accumulate + loop
                        for (int l = 0; l < kWarpSize; ++l)
                            sum[l] += v[l];
                        if (row + 1 < rows)
                            rec.call(w, Span::Add,
                                     [&] { p.add(w, kWarpSize); });
                        rec.opEnd(w);
                    }
                    if (pass == 0)
                        rec.call(w, Span::Add, [&] {
                            p.add(w, -int64_t(rows - 1) * kWarpSize);
                        });
                }
                sums[gid] = sum;
                rec.call(w, Span::Destroy, [&] { p.destroy(w); });
            });
    }
    {
        HostSpan h(rec, Span::Verify, &r.verify);
        r.attempted = uint64_t(kHpWarpsTotal) * kWarpSize;
        for (int gid = 0; gid < kHpWarpsTotal; ++gid) {
            for (int l = 0; l < kWarpSize; ++l) {
                // Two passes over a*(i0 + 32k) + b, k < rows.
                uint64_t i0 = start[gid] + uint64_t(l);
                uint64_t want =
                    2 * (rows * (a * i0 + b) +
                         a * kWarpSize * rows * (rows - 1) / 2);
                if (o.corrupt)
                    want ^= 1;
                if (sums[gid][l] != want)
                    r.failed++;
            }
        }
    }
    opLatency(rec, r);
    layerMetrics(st->dev->stats(), rec, r);
    return r;
}

// ---------------------------------------------------------------------
// the run loop
// ---------------------------------------------------------------------

struct Workload
{
    const char* name;
    Rep (*run)(const Options&, Recorder&);
};

constexpr Workload kWorkloads[] = {
    {"serve", runServe},
    {"translate", runTranslate},
    {"stream-rw", runStream},
    {"hitpath", runHitpath},
};

/** An end-to-end metric and the bound by which it may worsen. */
struct EndToEnd
{
    const char* name;
    const char* unit;
    double bound;
};

constexpr EndToEnd kEndToEnd[] = {
    {"setup_s", "s", 0.25},
    {"wall_ref", "ratio", 0.20},
    {"peak_rss_mb", "MiB", 0.05},
    {"sim_cycles", "cycles", 0.08},
    {"lat_p50_cycles", "cycles", 0.04},
    {"lat_p99_cycles", "cycles", 0.08},
};

/**
 * Host seconds of a fixed reference kernel that runs no code of the
 * program: a sort and ordered-map inserts, the kind of work the
 * simulator's event queue and stats registry do. On a shared machine
 * the host's speed drifts by 10% and more between runs a minute apart;
 * a repetition's run time divided by the reference time measured just
 * before it (wall_ref) cancels most of that drift.
 */
double
referenceSeconds()
{
    std::vector<uint64_t> v(size_t(1) << 18);
    SplitMix64 rng(1);
    for (uint64_t& x : v)
        x = rng.next();
    const auto t0 = std::chrono::steady_clock::now();
    std::sort(v.begin(), v.end());
    std::map<uint64_t, uint64_t> m;
    for (size_t i = 0; i < (size_t(1) << 16); ++i)
        m[v[(i * 7919) & (v.size() - 1)]] += i;
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return m.empty() ? 0.0 : t; // m is read, so the inserts stay
}

/** The same simulated numbers, bit for bit. */
bool
sameSim(const Rep& a, const Rep& b)
{
    if (a.simCycles != b.simCycles || a.latP50 != b.latP50 ||
        a.latP99 != b.latP99 || a.attempted != b.attempted ||
        a.layer.size() != b.layer.size())
        return false;
    for (const auto& [name, v] : a.layer) {
        auto it = b.layer.find(name);
        if (it == b.layer.end() || it->second.v != v.v)
            return false;
    }
    return true;
}

void
print(const std::string& name, double v, const std::string& unit)
{
    std::cout << name << " ";
    json::number(std::cout, v);
    std::cout << " " << unit << "\n";
}

int
usage()
{
    std::cerr << "usage: apbench --workload <serve|translate|stream-rw|"
                 "hitpath> [--seed <n>] [--seconds <s>] [--smoke] "
                 "[--trace <dir>] [--json <path>] [--corrupt]\n";
    return 2;
}

int
run(const Options& o, const Workload& wl)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    const bool tracing = !o.traceDir.empty();

    auto repeat = [&](Recorder& rec) {
        const double ref = referenceSeconds();
        Rep r = wl.run(o, rec);
        r.ref = ref;
        return r;
    };
    std::vector<Rep> plain;
    std::vector<Rep> traced;
    // Peak RSS of the first repetition: later ones can only add memory
    // the allocator keeps from earlier repetitions, not the workload's.
    double peak_mib = 0;
    do {
        Recorder rec(false);
        plain.push_back(repeat(rec));
        if (plain.size() == 1) {
            struct rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_mib = double(ru.ru_maxrss) / 1024.0;
        }
    } while (elapsed() < (tracing ? o.seconds / 2 : o.seconds));
    if (tracing) {
        do {
            Recorder rec(traced.empty());
            traced.push_back(repeat(rec));
            if (traced.size() == 1) {
                const double ghz = sim::CostModel{}.clockGhz;
                if (!rec.writeChromeTrace(o.traceDir + "/trace.json", ghz) ||
                    !rec.writeLayerTable(o.traceDir + "/layers.txt"))
                    bench::fail("cannot write the trace into " +
                                o.traceDir);
            }
        } while (elapsed() < o.seconds);
    }

    const Rep& first = plain.front();
    uint64_t attempted = 0;
    uint64_t failed = 0;
    for (const std::vector<Rep>* reps : {&plain, &traced}) {
        for (const Rep& r : *reps) {
            attempted += r.attempted;
            failed += r.failed;
            if (!sameSim(first, r))
                bench::fail("a repetition did not reproduce the first "
                            "one's simulated numbers");
        }
    }
    if (failed)
        bench::fail(std::to_string(failed) + " of " +
                    std::to_string(attempted) +
                    " outputs disagree with the oracle");

    auto med = [&](const std::vector<Rep>& reps, double Rep::*field) {
        std::vector<double> v;
        for (const Rep& r : reps)
            v.push_back(r.*field);
        return median(v);
    };
    std::vector<double> setups;
    std::vector<double> ratios;
    for (const Rep& r : plain) {
        setups.push_back(r.stack + r.inputs + r.warm);
        ratios.push_back(r.run / r.ref);
    }
    const double wall = med(plain, &Rep::run);

    std::map<std::string, double> e2e;
    e2e["setup_s"] = median(setups);
    e2e["wall_ref"] = median(ratios);
    e2e["peak_rss_mb"] = peak_mib;
    e2e["sim_cycles"] = first.simCycles;
    e2e["lat_p50_cycles"] = first.latP50;
    e2e["lat_p99_cycles"] = first.latP99;

    std::cout << "apbench " << wl.name << " seed " << o.seed << ": "
              << plain.size() << " untraced and " << traced.size()
              << " traced repetitions\n";
    for (const EndToEnd& m : kEndToEnd)
        print(m.name, e2e.at(m.name), m.unit);
    for (const auto& [name, v] : first.layer)
        print(name, v.v, v.unit);
    print("host.setup.stack_s", med(plain, &Rep::stack), "s");
    print("host.setup.inputs_s", med(plain, &Rep::inputs), "s");
    print("host.setup.warm_s", med(plain, &Rep::warm), "s");
    print("host.run_s", wall, "s");
    print("host.verify_s", med(plain, &Rep::verify), "s");
    print("host.ref_s", med(plain, &Rep::ref), "s");
    print("sim.kinstr_per_host_s",
          wall > 0 ? first.layer.at("sim.instructions").v / wall / 1e3 : 0,
          "kinstr/s");
    if (tracing)
        print("trace.overhead_frac",
              wall > 0 ? med(traced, &Rep::run) / wall - 1.0 : 0, "frac");
    std::cout << "attempted " << attempted << "\nfailed " << failed
              << "\n";

    if (!o.jsonPath.empty()) {
        bench::BenchResult doc("apbench." + std::string(wl.name));
        doc.config("seed", static_cast<double>(o.seed));
        doc.config("smoke", o.smoke ? 1.0 : 0.0);
        for (const EndToEnd& m : kEndToEnd)
            doc.metric(m.name, e2e.at(m.name), bench::Better::Lower,
                       m.bound);
        doc.metric("failed_frac",
                   attempted ? double(failed) / double(attempted) : 0.0,
                   bench::Better::Exact, 0);
        doc.writeFile(o.jsonPath);
    }
    return bench::exitCode();
}

} // namespace
} // namespace ap::apbench

int
main(int argc, char** argv)
{
    using namespace ap::apbench;
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string_view a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            o.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            char* end = nullptr;
            o.seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0')
                return usage();
        } else if (a == "--seconds" && has_value) {
            o.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_value) {
            o.traceDir = argv[++i];
        } else if (a == "--json" && has_value) {
            o.jsonPath = argv[++i];
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--corrupt") {
            o.corrupt = true;
        } else {
            return usage();
        }
    }
    for (const Workload& wl : kWorkloads)
        if (o.workload == wl.name)
            return run(o, wl);
    return usage();
}
