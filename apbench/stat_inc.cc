/**
 * @file
 * BM_StatInc: host cost of one StatGroup::inc on the hottest counter,
 * the call Warp::issue makes for every simulated instruction. Linked
 * into apbench_components beside bench/bench_components.cc.
 */

#include <benchmark/benchmark.h>

#include "util/stats.hh"

namespace {

void
BM_StatInc(benchmark::State& state)
{
    ap::StatGroup stats;
    // The registry holds the counters a running simulation holds, so
    // the lookup walks a realistically sized map.
    for (const char* name :
         {"core.fault_entries", "core.pages_linked", "gpufs.minor_faults",
          "gpufs.major_faults", "hostio.transfers", "sim.atomics",
          "sim.dram_read_bytes", "sim.dram_write_bytes",
          "sim.lock_acquires", "tlb.inserts"})
        stats.inc(name);
    // A string literal, exactly as Warp::issue passes it.
    for (auto _ : state) {
        stats.inc("sim.instructions", 1);
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(stats.counter("sim.instructions"));
}
BENCHMARK(BM_StatInc);

} // namespace
