#include "gpufs/page_table.hh"

#include "sim/device.hh"

namespace ap::gpufs {

PageTable::PageTable(sim::Device& dev, const Config& cfg)
    : nBuckets(cfg.numBuckets()), entsPerBucket(cfg.bucketEntries)
{
    AP_ASSERT(nBuckets > 0, "page table needs at least one bucket");
    size_t bytes =
        static_cast<size_t>(nBuckets) * entsPerBucket * sizeof(Pte);
    base = dev.mem().alloc(bytes, 128);
    // Device memory is zero-initialized, so all slots start empty.
    locks.reserve(nBuckets);
    for (uint32_t b = 0; b < nBuckets; ++b)
        locks.emplace_back("pt.bucket", b);
}

} // namespace ap::gpufs
