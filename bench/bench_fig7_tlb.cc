/**
 * @file
 * Reproduces paper Figure 7: read access time (cycles per page access)
 * as a function of the number of unique pages accessed by a
 * threadblock, for several TLB sizes and the TLB-less design.
 *
 * Methodology per section VI-C: a single threadblock of 32 warps; all
 * pages are resident (minor faults only); every access goes through a
 * freshly-unlinked apointer so each one exercises the fault path (TLB
 * or page table); the in-page offset is unique per warp.
 */

#include "bench_common.hh"

namespace ap::bench {
namespace {

using sim::Addr;
using sim::kWarpSize;
using sim::LaneArray;

constexpr int kWarps = 32;
constexpr int kItersPerWarp = 32;
constexpr size_t kPageSize = 4096;
constexpr int kMaxPages = 512;

std::unique_ptr<Stack>
tlbStack(int tlb_entries)
{
    core::GvmConfig g;
    g.useTlb = tlb_entries > 0;
    g.tlbEntries = tlb_entries > 0 ? tlb_entries : 32;
    gpufs::Config fscfg;
    fscfg.numFrames = kMaxPages + 512;
    auto st = std::make_unique<Stack>(g, fscfg);
    size_t bytes = size_t(kMaxPages) * kPageSize;
    st->bs.create("fig7.bin", bytes);
    return st;
}

/** Average cycles per page access for one (tlb, uniquePages) point. */
double
accessTime(Stack& st, int unique_pages)
{
    hostio::FileId f = st.bs.open("fig7.bin");
    size_t bytes = st.bs.size(f);

    // Warm the page cache (and then drop all references).
    st.dev->launch(1, kWarps, [&](sim::Warp& w) {
        auto p = core::gvmmap<uint32_t>(w, *st.rt, bytes,
                                        hostio::O_GRDONLY, f, 0);
        for (int pg = w.warpInBlock(); pg < unique_pages; pg += kWarps) {
            auto q = p.copyUnlinked(w);
            q.add(w, int64_t(pg) * (kPageSize / 4));
            (void)q.read(w);
            q.destroy(w);
        }
        p.destroy(w);
    });

    sim::Cycles cycles = st.dev->launch(1, kWarps, [&](sim::Warp& w) {
        auto p = core::gvmmap<uint32_t>(w, *st.rt, bytes,
                                        hostio::O_GRDONLY, f, 0);
        int wid = w.warpInBlock();
        for (int i = 0; i < kItersPerWarp; ++i) {
            int pg = (wid * kItersPerWarp + i) % unique_pages;
            // A fresh unlinked pointer: every access faults into the
            // translation layer (TLB hit, or page-table lookup).
            auto q = p.copyUnlinked(w);
            LaneArray<int64_t> seek;
            for (int l = 0; l < kWarpSize; ++l)
                seek[l] = int64_t(pg) * (kPageSize / 4) +
                          (wid * kWarpSize) % (kPageSize / 4) + l;
            q.addPerLane(w, seek);
            (void)q.read(w);
            q.destroy(w);
        }
        p.destroy(w);
    });
    return cycles / double(kWarps * kItersPerWarp);
}

/**
 * Translation telemetry for one characterized point: a 32-entry TLB
 * driven at 2x its capacity (64 unique pages), so conflict
 * replacement, invalidation on release, and end-of-launch teardown
 * all retire entries. Reports the dead-entry (zero-hit) breakdown and
 * the entry-lifetime / reuse-distance distributions, and gates them
 * in the JSON document (docs/OBSERVABILITY.md "Translation
 * telemetry").
 */
void
tlbTelemetry(BenchResult& doc)
{
    banner("TLB telemetry: 32 entries, 64 unique pages (2x capacity)");

    constexpr int kTelemetryEntries = 32;
    constexpr int kTelemetryPages = 64;
    auto st = tlbStack(kTelemetryEntries);
    (void)accessTime(*st, kTelemetryPages);
    const StatGroup& s = st->dev->stats();

    TextTable t;
    t.header({"reason", "evicted", "doa", "doa%"});
    uint64_t evicted = 0;
    uint64_t doa = 0;
    for (const char* r : core::kTlbEvictReasonNames) {
        uint64_t ev = s.counter("tlb.evict." + std::string(r));
        uint64_t dead = s.counter("tlb.doa." + std::string(r));
        evicted += ev;
        doa += dead;
        t.row({r, std::to_string(ev), std::to_string(dead),
               ev ? TextTable::pct(double(dead) / double(ev)) : "-"});
        doc.metric("telemetry.evict." + std::string(r), double(ev),
                   Better::Exact, 0.0);
    }
    t.row({"total", std::to_string(evicted), std::to_string(doa),
           evicted ? TextTable::pct(double(doa) / double(evicted))
                   : "-"});
    t.print(std::cout);

    // A dead entry paid the install cost for nothing, so a lower rate
    // is strictly better at fixed behavior.
    doc.metric("telemetry.doa_rate",
               evicted ? double(doa) / double(evicted) : 0.0,
               Better::Lower, 0.05);

    TextTable d;
    d.header({"distribution", "count", "mean", "p50", "p95", "p99"});
    for (const char* hname : {"tlb.entry_lifetime",
                              "tlb.reuse_distance"}) {
        const Histogram* h = s.findHistogram(hname);
        if (!h)
            continue;
        d.row({hname, std::to_string(h->count()),
               TextTable::num(h->mean()),
               TextTable::num(h->quantile(0.50)),
               TextTable::num(h->quantile(0.95)),
               TextTable::num(h->quantile(0.99))});
        std::string base = std::string("telemetry.") +
                           (hname + sizeof("tlb.") - 1);
        doc.metric(base + "_p50", h->quantile(0.50), Better::Lower,
                   0.05);
        doc.metric(base + "_p95", h->quantile(0.95), Better::Lower,
                   0.05);
    }
    d.print(std::cout);

    if (evicted == 0)
        fail("tlb telemetry run retired no entries");
}

void
run(const std::string& json_path)
{
    banner("Figure 7: cycles per page access vs unique pages per "
           "threadblock (lower is better)");

    const int unique[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
    const int tlbs[] = {8, 16, 32, 64, 0}; // 0 = no TLB

    BenchResult doc("fig7");
    doc.config("warps", kWarps);
    doc.config("iters_per_warp", kItersPerWarp);

    TextTable t;
    std::vector<std::string> head{"TLB \\ unique pages"};
    for (int u : unique)
        head.push_back(std::to_string(u));
    t.header(head);

    for (int entries : tlbs) {
        std::string label =
            entries ? "tlb" + std::to_string(entries) : "notlb";
        std::vector<std::string> row{
            entries ? std::to_string(entries) + " entries" : "no TLB"};
        for (int u : unique) {
            auto st = tlbStack(entries);
            double cyc = accessTime(*st, u);
            row.push_back(TextTable::num(cyc, 0));
            // The extremes characterize the curve: full reuse (1
            // unique page) and full thrash (512).
            if (u == 1 || u == 512)
                doc.metric(label + ".cycles_u" + std::to_string(u),
                           cyc, Better::Lower, 0.02);
        }
        t.row(row);
    }
    t.print(std::cout);

    std::cout << "\nPaper reference: the TLB wins at high page reuse "
                 "(few unique pages); past the TLB capacity its miss/"
                 "update overhead makes the TLB-less design faster.\n";

    tlbTelemetry(doc);

    if (!json_path.empty())
        doc.writeFile(json_path);
}

} // namespace
} // namespace ap::bench

int
main(int argc, char** argv)
{
    std::string json = ap::bench::jsonPathArg(argc, argv);
    if (argc != 1) {
        std::cerr << "usage: bench_fig7_tlb [--json <path>]\n";
        return 2;
    }
    ap::bench::run(json);
    return ap::bench::exitCode();
}
