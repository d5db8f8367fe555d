/**
 * @file
 * The Device: top-level handle owning the engine, global memory, SMs,
 * and the kernel-launch machinery (block dispatch respecting warp-slot
 * occupancy limits).
 */

#ifndef AP_SIM_DEVICE_HH
#define AP_SIM_DEVICE_HH

#include <functional>
#include <memory>
#include <vector>

#include "sim/cost_model.hh"
#include "sim/engine.hh"
#include "sim/faultpath.hh"
#include "sim/memory.hh"
#include "sim/sm.hh"
#include "sim/threadblock.hh"
#include "sim/trace.hh"
#include "sim/warp.hh"
#include "util/stats.hh"

namespace ap::sim {

/**
 * A simulated discrete GPU. Launch kernels with launch(); simulated
 * time accumulates monotonically across launches (the engine is shared
 * with host-side components such as the DMA model).
 */
class Device
{
  public:
    /** Kernel body, invoked once per warp. */
    using KernelFn = std::function<void(Warp&)>;

    /** Per-threadblock initialization hook (runs at dispatch, free). */
    using BlockInitFn = std::function<void(ThreadBlock&)>;

    /**
     * @param cm        timing constants
     * @param mem_bytes capacity of simulated device memory
     */
    explicit Device(const CostModel& cm = CostModel{},
                    size_t mem_bytes = size_t(256) << 20);

    ~Device();

    /** Timing constants in force. */
    const CostModel& costModel() const { return cm_; }

    /** Device global memory. */
    GlobalMemory& mem() { return mem_; }

    /** The event engine shared by device and host models. */
    Engine& engine() { return eng_; }

    /** Launch-wide statistics (instructions, traffic, faults, ...). */
    StatGroup& stats() { return stats_; }

    /** The trace-event recorder (disabled unless enable()d). */
    Tracer& tracer() { return tracer_; }

    /** The fault-path latency recorder (always on). */
    FaultPath& faultPath() { return faultpath_; }

    /**
     * Launch a kernel and run the simulation until it completes.
     *
     * @param num_blocks      threadblocks in the grid
     * @param warps_per_block warps per threadblock (<= 32)
     * @param fn              kernel body, one call per warp
     * @param block_init      optional hook run when a block is dispatched
     * @return elapsed simulated cycles, including launch latency
     */
    Cycles launch(int num_blocks, int warps_per_block, const KernelFn& fn,
                  const BlockInitFn& block_init = nullptr);

    /** Convert a cycle count to seconds at the modeled core clock. */
    double toSeconds(Cycles c) const { return cm_.toSeconds(c); }

  private:
    struct LaunchState;

    void tryDispatch(LaunchState& ls);

    CostModel cm_;
    Engine eng_;
    GlobalMemory mem_;
    std::vector<Sm> sms_;
    StatGroup stats_;
    SimCounters simCounters_{stats_};
    Tracer tracer_;
    FaultPath faultpath_;
};

} // namespace ap::sim

#endif // AP_SIM_DEVICE_HH
