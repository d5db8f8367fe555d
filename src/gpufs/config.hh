/**
 * @file
 * GPUfs page-cache configuration, defaults per paper section V:
 * 4 KB pages (kPageBytes), a hash table 16x the number of frames,
 * fine-grain per-bucket locks, and host-side transfer batching.
 */

#ifndef AP_GPUFS_CONFIG_HH
#define AP_GPUFS_CONFIG_HH

#include <cstddef>
#include <cstdint>

namespace ap::gpufs {

/**
 * Adaptive readahead policy (PageCache::readahead, DESIGN.md section
 * 11). Off by default: demand paging behaves exactly as before unless
 * a config opts in. The knobs live here, next to the page-cache
 * geometry they trade against, so a workload sizes the cache and the
 * speculation budget together.
 */
struct ReadaheadConfig
{
    /** Master switch; when false PageCache::readahead returns at once. */
    bool enabled = false;

    /** Pages issued when a stream is first confirmed. */
    uint32_t initialWindow = 4;

    /** Ramp cap: the window doubles up to this many pages. */
    uint32_t maxWindow = 64;

    /** Thrash floor: shrinking never goes below this. */
    uint32_t minWindow = 2;

    /** Concurrently tracked streams (LRU-recycled beyond this). */
    uint32_t streams = 16;

    /** Faults with a consistent stride before a stream confirms
     * (non-unit strides need one extra exact continuation). Three
     * faults means two consecutive consistent deltas — scattered
     * access almost never fakes that, and a real stream pays only
     * one extra demand fault before the window opens. */
    uint32_t confirm = 3;

    /** Strides beyond this many pages never form a stream. */
    int64_t maxStridePages = 64;

    /**
     * Throttle: speculation stops when fewer than
     * numFrames * freeFrameWatermark frames are free, so readahead
     * never forces eviction of demand-touched pages.
     */
    double freeFrameWatermark = 1.0 / 32.0;

    /**
     * Throttle: speculation stops while the host I/O engine has this
     * many transfers pending or in flight (demand DMA first).
     */
    uint32_t maxQueueDepth = 48;
};

/**
 * Page size in bytes. The paper uses 4 KB throughout, and the short
 * apointer layout's 12-bit offset field fixes it (core/runtime.hh).
 */
inline constexpr size_t kPageBytes = 4096;

/** Page-cache geometry and policy knobs. */
struct Config
{
    /** Number of page frames in the GPU page cache. */
    uint32_t numFrames = 4096;

    /**
     * Page-table entries per frame; the paper sets the table to be 16x
     * the number of pages for a ~3% collision rate.
     */
    uint32_t entriesPerFrame = 16;

    /** Entries per hash bucket (one bucket = one lock). */
    uint32_t bucketEntries = 8;

    /** Staging-area slots for host->GPU page transfers. */
    uint32_t stagingSlots = 128;

    /** Adaptive readahead policy (disabled by default). */
    ReadaheadConfig readahead;

    /** Number of buckets in the page table. */
    uint32_t
    numBuckets() const
    {
        return numFrames * entriesPerFrame / bucketEntries;
    }
};

} // namespace ap::gpufs

#endif // AP_GPUFS_CONFIG_HH
