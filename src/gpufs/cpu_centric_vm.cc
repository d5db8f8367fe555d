#include "gpufs/cpu_centric_vm.hh"

#include <algorithm>

#include "sim/device.hh"

namespace ap::gpufs {

CpuCentricVm::CpuCentricVm(sim::Device& dev_, hostio::HostIoEngine& io_,
                           uint32_t num_frames)
    : dev(&dev_), io(&io_), nFrames(num_frames),
      hits_(dev_.stats(), "cpuvm.hits"), faults_(dev_.stats(), "cpuvm.faults"),
      serviced_(dev_.stats(), "cpuvm.faults_serviced"),
      revocations_(dev_.stats(), "cpuvm.revocations")
{
    AP_ASSERT(num_frames > 0, "need at least one frame");
    framesBase = dev->mem().alloc(
        static_cast<size_t>(num_frames) * kPageBytes, kPageBytes);
    freeFrames.reserve(num_frames);
    for (uint32_t f = num_frames; f-- > 0;)
        freeFrames.push_back(f);
    int threads = std::max(1, dev->costModel().cpuFaultHandlerThreads);
    // Each handler context moves page data at PCIe rate.
    for (int i = 0; i < threads; ++i)
        handlers.emplace_back(dev->costModel().pcieBytesPerCycle);
}

void
CpuCentricVm::serviceFault(PageKey key)
{
    // Allocate (or revoke-and-reuse) a frame. The CPU is free to
    // unmap any page: no refcounts exist in this design.
    uint32_t frame;
    if (!freeFrames.empty()) {
        frame = freeFrames.back();
        freeFrames.pop_back();
    } else {
        AP_ASSERT(!fifo.empty(), "no frame to revoke");
        PageKey victim = fifo.front();
        fifo.pop_front();
        auto it = table.find(victim);
        AP_ASSERT(it != table.end(), "fifo/table mismatch");
        frame = it->second;
        table.erase(it);
        revocations_.inc();
    }

    hostio::FileId f = pageKeyFile(key);
    uint64_t off = pageKeyPageNo(key) * kPageBytes;
    size_t len = std::min<size_t>(kPageBytes, io->store().size(f) - off);
    io->store().pread(f, dev->mem().raw(frameAddr(frame), len), len, off);
    if (len < kPageBytes)
        std::memset(
            dev->mem().raw(frameAddr(frame) + len, kPageBytes - len), 0,
            kPageBytes - len);

    table.emplace(key, frame);
    fifo.push_back(key);
    serviced_.inc();

    auto wit = inFlight.find(key);
    AP_ASSERT(wit != inFlight.end(), "fault with no waiters");
    sim::FiberQueue& waiters = wit->second;
    while (!waiters.empty())
        dev->engine().scheduleFiber(dev->engine().now(), waiters.pop());
    inFlight.erase(wit);
}

sim::Addr
CpuCentricVm::translate(sim::Warp& w, hostio::FileId f, uint64_t page_no)
{
    PageKey key = makePageKey(f, page_no);
    auto it = table.find(key);
    if (it != table.end()) {
        // Hardware translation: no software cost at all.
        hits_.inc();
        return frameAddr(it->second);
    }

    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();
    faults_.inc();

    auto& waiters = inFlight[key];
    bool first = waiters.empty();
    waiters.push(sim::Fiber::current());
    if (first) {
        // Fault delivery to the CPU, serialized handler + CPU-driven
        // DMA, then the mapping-update doorbell back to the GPU.
        sim::Cycles start = eng.now() + cm.pcieLatency;
        sim::BwServer* best = &handlers[0];
        for (auto& h : handlers)
            if (h.freeTime() < best->freeTime())
                best = &h;
        sim::Cycles done =
            best->acquireWithSetup(start, static_cast<double>(kPageBytes),
                                   cm.cpuFaultHandlerCost) +
            cm.pcieLatency;
        eng.schedule(done, [this, key] { serviceFault(key); });
    }
    eng.block();

    auto it2 = table.find(key);
    AP_ASSERT(it2 != table.end(), "woken before the page was mapped");
    (void)w;
    return frameAddr(it2->second);
}

} // namespace ap::gpufs
