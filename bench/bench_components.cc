/**
 * @file
 * Google-benchmark microbenchmarks of the substrate primitives: these
 * measure *host* wall-time of the simulator's building blocks (fiber
 * switches, event dispatch, memory-model operations, page-table
 * probes, apointer dereference), i.e. how fast the reproduction itself
 * runs — useful when sizing experiments and catching simulator
 * performance regressions. BM_StatCharge prices one stats charge by
 * name against one through a StatGroup handle.
 */

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/vm.hh"

namespace ap {
namespace {

void
BM_FiberSwitch(benchmark::State& state)
{
    sim::Fiber f([] {
        for (;;)
            sim::Fiber::current()->yield();
    });
    for (auto _ : state)
        f.resume();
}
BENCHMARK(BM_FiberSwitch);

void
BM_EngineEvent(benchmark::State& state)
{
    sim::Engine eng;
    for (auto _ : state) {
        eng.schedule(eng.now() + 1, [] {});
        eng.run();
    }
}
BENCHMARK(BM_EngineEvent);

void
BM_EngineFiberWake(benchmark::State& state)
{
    // The engine's common event: a warp fiber waking from waitUntil
    // (BM_EngineEvent times only host callbacks, under 1% of the events
    // a workload dispatches). Each round starts N fibers; each waits one
    // cycle 64 times, then blocks until the next round. Items are the
    // dispatched wake-ups, the start included.
    constexpr int kWaits = 64;
    const auto n = static_cast<size_t>(state.range(0));
    sim::Engine eng;
    std::vector<std::unique_ptr<sim::Fiber>> fibers;
    for (size_t i = 0; i < n; ++i)
        fibers.push_back(std::make_unique<sim::Fiber>([&eng] {
            for (;;) {
                for (int k = 0; k < kWaits; ++k)
                    eng.waitUntil(eng.now() + 1);
                eng.block();
            }
        }));
    for (auto _ : state) {
        for (auto& f : fibers)
            eng.scheduleFiber(eng.now(), f.get());
        eng.run();
        benchmark::DoNotOptimize(eng.now());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n * (kWaits + 1)));
}
// With one fiber every wake-up is due first (stream-rw's common path);
// 832 is apbench hitpath's warp count.
BENCHMARK(BM_EngineFiberWake)->Arg(1)->Arg(64)->Arg(832);

void
BM_GlobalMemoryLoadStore(benchmark::State& state)
{
    sim::CostModel cm;
    sim::GlobalMemory mem(1 << 20, cm);
    uint64_t v = 0;
    for (auto _ : state) {
        mem.store<uint64_t>(4096, v);
        benchmark::DoNotOptimize(v = mem.load<uint64_t>(4096));
    }
}
BENCHMARK(BM_GlobalMemoryLoadStore);

void
BM_CoalescedTraffic(benchmark::State& state)
{
    sim::CostModel cm;
    sim::GlobalMemory mem(1 << 20, cm);
    auto addrs = sim::LaneArray<sim::Addr>::iota(4096, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mem.coalescedTraffic(addrs, 4, sim::kFullMask));
}
BENCHMARK(BM_CoalescedTraffic);

void
BM_WarpLoadGlobal(benchmark::State& state)
{
    // One simulated warp performing loads, measured in host time per
    // simulated load (includes engine + bandwidth-server overhead).
    sim::Device dev(sim::CostModel{}, 1 << 20);
    sim::Addr buf = dev.mem().alloc(4096, 4096);
    for (auto _ : state) {
        dev.launch(1, 1, [&](sim::Warp& w) {
            auto addrs = sim::LaneArray<sim::Addr>::iota(buf, 4);
            for (int i = 0; i < 64; ++i)
                benchmark::DoNotOptimize(
                    w.loadGlobal<uint32_t>(addrs));
        });
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WarpLoadGlobal);

void
BM_PageTableProbe(benchmark::State& state)
{
    hostio::BackingStore bs;
    sim::Device dev(sim::CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    gpufs::Config cfg;
    gpufs::GpuFs fs(dev, io, cfg);
    bs.create("f", 1 << 20);
    for (auto _ : state) {
        dev.launch(1, 1, [&](sim::Warp& w) {
            for (int i = 0; i < 64; ++i)
                benchmark::DoNotOptimize(fs.cache().table().probe(
                    w, gpufs::makePageKey(0, i)));
        });
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PageTableProbe);

void
BM_AptrFaultFreeRead(benchmark::State& state)
{
    hostio::BackingStore bs;
    sim::Device dev(sim::CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    gpufs::GpuFs fs(dev, io, gpufs::Config{});
    core::GvmRuntime rt(fs);
    sim::Addr buf = dev.mem().alloc(4096, 4096);
    for (auto _ : state) {
        dev.launch(1, 1, [&](sim::Warp& w) {
            auto p = core::AptrVec<uint32_t>::mapDirect(
                w, rt, buf, 4096, core::kPermRead);
            p.addPerLane(w, sim::LaneArray<int64_t>::iota(0));
            (void)p.read(w); // link
            for (int i = 0; i < 64; ++i)
                benchmark::DoNotOptimize(p.read(w));
            p.destroy(w);
        });
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AptrFaultFreeRead);

void
BM_AptrFaultPath(benchmark::State& state)
{
    hostio::BackingStore bs;
    sim::Device dev(sim::CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    gpufs::Config cfg;
    cfg.numFrames = 1024;
    gpufs::GpuFs fs(dev, io, cfg);
    core::GvmRuntime rt(fs);
    hostio::FileId f = bs.create("f", 4 << 20);
    // Pre-warm so the measured path is minor faults.
    dev.launch(1, 1, [&](sim::Warp& w) {
        auto p =
            core::gvmmap<uint32_t>(w, rt, 4 << 20, hostio::O_GRDONLY,
                                   f, 0);
        for (int pg = 0; pg < 1024; ++pg) {
            auto q = p.copyUnlinked(w);
            q.add(w, int64_t(pg) * 1024);
            (void)q.read(w);
            q.destroy(w);
        }
        p.destroy(w);
    });
    for (auto _ : state) {
        dev.launch(1, 1, [&](sim::Warp& w) {
            auto p = core::gvmmap<uint32_t>(w, rt, 4 << 20,
                                            hostio::O_GRDONLY, f, 0);
            for (int i = 0; i < 64; ++i) {
                auto q = p.copyUnlinked(w);
                q.add(w, (i % 1024) * 1024);
                benchmark::DoNotOptimize(q.read(w));
                q.destroy(w);
            }
            p.destroy(w);
        });
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AptrFaultPath);

/** The charge BM_StatCharge times: a counter or a histogram sample,
 * by name or through a handle. */
enum class Charge
{
    CounterByName,
    CounterHandle,
    HistByName,
    HistHandle,
};

template <Charge kCharge>
void
BM_StatCharge(benchmark::State& state)
{
    // The registry a small faulting kernel leaves behind, so a charge
    // by name walks a realistically sized map: every name the apointer
    // fault path, TLB, page cache, host IO and fault recorder charge.
    hostio::BackingStore bs;
    sim::Device dev(sim::CostModel{}, 64 << 20);
    hostio::HostIoEngine io(dev, bs);
    gpufs::Config cfg;
    cfg.numFrames = 1024;
    gpufs::GpuFs fs(dev, io, cfg);
    core::GvmConfig gcfg;
    gcfg.useTlb = true;
    core::GvmRuntime rt(fs, gcfg);
    hostio::FileId f = bs.create("f", 1 << 20);
    dev.launch(2, 2, [&](sim::Warp& w) {
        auto p = core::gvmmap<uint32_t>(w, rt, 1 << 20, hostio::O_GRDONLY,
                                        f, 0);
        for (int pg = 0; pg < 64; ++pg) {
            auto q = p.copyUnlinked(w);
            q.add(w, int64_t(pg % 8) * 1024);
            (void)q.read(w);
            q.destroy(w);
        }
        p.destroy(w);
    });
    StatGroup& st = dev.stats();
    StatGroup::Counter counter(st, "core.pages_linked");
    StatGroup::Hist hist(st, "faultpath.minor.lookup");
    for (auto _ : state) {
        if constexpr (kCharge == Charge::CounterByName)
            st.inc("core.pages_linked");
        else if constexpr (kCharge == Charge::CounterHandle)
            counter.inc();
        else if constexpr (kCharge == Charge::HistByName)
            st.recordValue("faultpath.minor.lookup", 137.0);
        else
            hist.record(137.0);
        benchmark::ClobberMemory();
    }
}
BENCHMARK_TEMPLATE(BM_StatCharge, Charge::CounterByName);
BENCHMARK_TEMPLATE(BM_StatCharge, Charge::CounterHandle);
BENCHMARK_TEMPLATE(BM_StatCharge, Charge::HistByName);
BENCHMARK_TEMPLATE(BM_StatCharge, Charge::HistHandle);

} // namespace
} // namespace ap

BENCHMARK_MAIN();
