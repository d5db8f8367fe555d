/**
 * @file
 * Fundamental types shared across the GPU simulator.
 */

#ifndef AP_SIM_TYPES_HH
#define AP_SIM_TYPES_HH

#include <array>
#include <bit>
#include <cstdint>

namespace ap::sim {

/** A device (aphysical) byte address into simulated global memory. */
using Addr = uint64_t;

/**
 * Simulated time in GPU clock cycles. A double so that fractional
 * issue-port reservations (several warp-instructions per cycle) compose
 * exactly.
 */
using Cycles = double;

/** Threads per warp, as on NVIDIA hardware. */
constexpr int kWarpSize = 32;

/** A predicate/activity bit per lane of a warp. */
using LaneMask = uint32_t;

/** All 32 lanes active. */
constexpr LaneMask kFullMask = 0xffffffffu;

/**
 * One value per lane of a warp. This is the SIMT register: device code
 * in this simulator is written warp-wide, so a "per-thread variable"
 * from the paper's CUDA code becomes a LaneArray here.
 */
template <typename T>
struct LaneArray
{
    std::array<T, kWarpSize> v{};

    T& operator[](int lane) { return v[lane]; }
    const T& operator[](int lane) const { return v[lane]; }

    /** Every lane holds @p x. */
    static LaneArray
    broadcast(T x)
    {
        LaneArray a;
        a.v.fill(x);
        return a;
    }

    /** Lane i holds base + i * step. */
    static LaneArray
    iota(T base, T step = T(1))
    {
        LaneArray a;
        for (int i = 0; i < kWarpSize; ++i)
            a.v[i] = static_cast<T>(base + step * T(i));
        return a;
    }
};

/** Find-first-set, 1-based like CUDA's __ffs; 0 when no bit set. */
constexpr int
ffs32(uint32_t x)
{
    return x == 0 ? 0 : std::countr_zero(x) + 1;
}

/** Population count, like CUDA's __popc. */
constexpr int
popc32(uint32_t x)
{
    return std::popcount(x);
}

} // namespace ap::sim

#endif // AP_SIM_TYPES_HH
