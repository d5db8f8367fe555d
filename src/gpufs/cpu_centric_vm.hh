/**
 * @file
 * The CPU-centric VM management baseline of paper Figure 1, built as a
 * contrast to the GPU-centric ActivePointers design (Figure 2): a GPU
 * page fault is (1) forwarded to the GPU driver on the CPU, (2) the
 * CPU executes the handler, (3) copies the data from the backing
 * store, (4) writes it into the CPU-managed GPU page cache and (5)
 * updates the GPU hardware page table.
 *
 * Consequences faithfully modeled:
 *  - hits are free (hardware translation, no software overhead),
 *  - every fault costs a round trip plus serialized CPU handler time
 *    (a handful of driver contexts), so massively parallel faulting
 *    saturates the CPU — the scalability bottleneck section I argues
 *    the GPU-centric design avoids,
 *  - the CPU may revoke mappings at will (no refcounting), which is
 *    exactly why translations could not be cached in registers.
 */

#ifndef AP_GPUFS_CPU_CENTRIC_VM_HH
#define AP_GPUFS_CPU_CENTRIC_VM_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "gpufs/page_table.hh"
#include "hostio/host_io_engine.hh"

namespace ap::gpufs {

/** A CPU-managed, hardware-VM-backed GPU page cache. */
class CpuCentricVm
{
  public:
    /**
     * @param dev        simulated GPU (frames come from its memory)
     * @param io         host engine (supplies the backing store)
     * @param num_frames CPU-managed page-cache capacity
     */
    CpuCentricVm(sim::Device& dev, hostio::HostIoEngine& io,
                 uint32_t num_frames);

    /**
     * Translate (f, page_no) to a device address, faulting to the CPU
     * if unmapped. Blocks the calling warp for the fault round trip;
     * costs nothing on a hit (hardware translation).
     */
    sim::Addr translate(sim::Warp& w, hostio::FileId f, uint64_t page_no);

    /** Host-side: is the page currently mapped? */
    bool
    mappedHost(hostio::FileId f, uint64_t page_no) const
    {
        return table.count(makePageKey(f, page_no)) != 0;
    }

  private:
    sim::Addr frameAddr(uint32_t frame) const
    {
        return framesBase + static_cast<sim::Addr>(frame) * kPageBytes;
    }

    /** Runs on the host at handler-completion time. */
    void serviceFault(PageKey key);

    sim::Device* dev;
    hostio::HostIoEngine* io;
    uint32_t nFrames;
    sim::Addr framesBase;

    /** The CPU-managed page table / hardware mappings. */
    std::unordered_map<PageKey, uint32_t> table;

    /** Faults in flight: waiters per page. */
    std::unordered_map<PageKey, sim::FiberQueue> inFlight;

    /** FIFO of mapped pages for eviction (the CPU revokes at will). */
    std::deque<PageKey> fifo;
    std::vector<uint32_t> freeFrames;

    /** Serialized CPU driver contexts. */
    std::vector<sim::BwServer> handlers;

    // Handles on the cpuvm.* stats, charged per translation and fault.
    StatGroup::Counter hits_;        ///< cpuvm.hits
    StatGroup::Counter faults_;      ///< cpuvm.faults
    StatGroup::Counter serviced_;    ///< cpuvm.faults_serviced
    StatGroup::Counter revocations_; ///< cpuvm.revocations
};

} // namespace ap::gpufs

#endif // AP_GPUFS_CPU_CENTRIC_VM_HH
