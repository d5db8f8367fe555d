/**
 * @file
 * Deterministic arrival processes for the serving harness
 * (docs/SERVING.md). All randomness draws from SplitMix64 so a seeded
 * run's request schedule — and therefore its latency distribution —
 * is bit-reproducible, which is what lets scripts/perf_diff hold
 * committed baselines to tight tolerance bands.
 */

#ifndef AP_SERVING_ARRIVAL_HH
#define AP_SERVING_ARRIVAL_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/rng.hh"

namespace ap::serving {

/** How simulated clients issue their requests. */
enum class Arrival {
    Closed,  ///< closed loop: next request = completion + think time
    Poisson, ///< open loop: exponential interarrival gaps
    Bursty,  ///< open loop: Poisson gaps gated to on/off burst windows
};

/** Open-loop arrival-process knobs (cycles). */
struct ArrivalParams
{
    /** Mean interarrival gap of the Poisson process. */
    double meanGapCycles = 4000;

    /** Bursty: length of each on-window (arrivals flow). */
    double burstOnCycles = 200000;

    /** Bursty: length of each off-window (no arrivals). */
    double burstOffCycles = 600000;

    /**
     * Bursty: gap multiplier inside an on-window; < 1 concentrates
     * the same offered load into the bursts, producing the transient
     * overload the admission controller is there to absorb.
     */
    double burstGapScale = 0.25;
};

/**
 * One sample of an exponential distribution with the given mean,
 * via inverse CDF over a 53-bit uniform draw.
 */
inline double
expSample(SplitMix64& rng, double mean)
{
    double u = static_cast<double>(rng.next() >> 11) *
               (1.0 / 9007199254740992.0); // [0, 1)
    return -mean * std::log1p(-u);
}

/**
 * The absolute issue times (cycles, ascending) of @p count open-loop
 * requests. Poisson draws exponential gaps; Bursty draws denser
 * exponential gaps but snaps any arrival that lands in an off-window
 * forward to the start of the next on-window.
 */
inline std::vector<double>
openLoopArrivals(Arrival a, const ArrivalParams& p, uint32_t count,
                 uint64_t seed)
{
    AP_ASSERT(a != Arrival::Closed,
              "closed-loop arrivals are completion-driven, not "
              "pre-generated");
    SplitMix64 rng(seed ^ 0x4152525631ULL);
    std::vector<double> t(count);
    double now = 0;
    double period = p.burstOnCycles + p.burstOffCycles;
    for (uint32_t i = 0; i < count; ++i) {
        double mean = a == Arrival::Poisson
                          ? p.meanGapCycles
                          : p.meanGapCycles * p.burstGapScale;
        now += expSample(rng, mean);
        if (a == Arrival::Bursty) {
            double phase = std::fmod(now, period);
            if (phase >= p.burstOnCycles)
                now += period - phase;
        }
        t[i] = now;
    }
    return t;
}

} // namespace ap::serving

#endif // AP_SERVING_ARRIVAL_HH
