/**
 * @file
 * The GPUfs-style file API exposed to device code (paper section V):
 * warp-level gopen/gread/gwrite plus the gmmap/gmunmap page-mapping
 * calls that the ActivePointers layer builds on. All calls are made by
 * the warp as a unit, matching GPUfs's warp-level API.
 */

#ifndef AP_GPUFS_GPUFS_HH
#define AP_GPUFS_GPUFS_HH

#include <string>

#include "gpufs/page_cache.hh"
#include "util/annotations.hh"

namespace ap::gpufs {

/**
 * The GPU file system layer: a page cache over a host backing store.
 * One instance per Device; live for the duration of the simulation.
 */
class GpuFs
{
  public:
    /**
     * @param dev simulated GPU
     * @param io  host I/O engine (owns batching policy)
     * @param cfg page-cache geometry
     */
    GpuFs(sim::Device& dev, hostio::HostIoEngine& io, const Config& cfg)
        : dev_(&dev), io_(&io), cache_(dev, io, cfg)
    {
    }

    /** Page size (the one gpufs::kPageBytes). */
    static constexpr size_t pageSize() { return kPageBytes; }

    /**
     * Device-side open: an RPC to the host file system.
     * @return file descriptor, or -1 if the file does not exist
     */
    hostio::FileId
    gopen(sim::Warp& w, const std::string& name) AP_YIELDS
    {
        return static_cast<hostio::FileId>(io_->rpc(
            w, [this, name] { return io_->store().open(name); }));
    }

    /**
     * Map the page containing @p offset of file @p f, taking one page
     * reference (the paper's gmmap: "locks the page up in the page
     * table ... and brings the data from the host if necessary").
     *
     * @param w      calling warp
     * @param f      file
     * @param offset byte offset within the file
     * @param prot   O_GRDONLY / O_GRDWR
     * @param status errno-style out-parameter: on failure (fill error,
     *               bad file, offset beyond EOF) receives the reason;
     *               untouched callers can test the 0 return instead
     * @return device address corresponding to @p offset, or 0 on
     *         failure (no reference is held)
     */
    sim::Addr
    gmmap(sim::Warp& w, hostio::FileId f, uint64_t offset, uint32_t prot,
          hostio::IoStatus* status = nullptr) AP_ELECTS_LEADER AP_YIELDS
    {
        uint64_t page_no = offset / kPageBytes;
        AcquireResult r = cache_.acquirePage(
            w, makePageKey(w.tenant(), f, page_no), 1,
            (prot & hostio::O_GWRONLY) != 0);
        if (status)
            *status = r.status;
        if (!r.ok())
            return 0;
        return r.frameAddr + offset % kPageBytes;
    }

    /** Drop the reference taken by gmmap on @p offset's page. */
    void
    gmunmap(sim::Warp& w, hostio::FileId f, uint64_t offset)
        AP_ELECTS_LEADER
    {
        cache_.releasePage(
            w, makePageKey(w.tenant(), f, offset / kPageBytes), 1);
    }

    /**
     * Warp-level file read through the page cache: acquires each
     * covered page, copies into the destination buffer, releases.
     * @return Ok, or the first page's failure status (the transfer
     *         stops at the failed page; earlier pages were copied)
     */
    hostio::IoStatus
    gread(sim::Warp& w, hostio::FileId f, uint64_t off, size_t len,
          sim::Addr dst)
        AP_ELECTS_LEADER AP_YIELDS AP_MUST_CHECK AP_BALANCED
    {
        return transfer(w, f, off, len, dst, false);
    }

    /**
     * Warp-level file write through the page cache.
     * @return Ok, or the first page's failure status
     */
    hostio::IoStatus
    gwrite(sim::Warp& w, hostio::FileId f, uint64_t off, size_t len,
           sim::Addr src)
        AP_ELECTS_LEADER AP_YIELDS AP_MUST_CHECK AP_BALANCED
    {
        return transfer(w, f, off, len, src, true);
    }

    /**
     * Advisory prefetch (madvise(WILLNEED) for GPU mappings): start
     * asynchronous host transfers for every absent page of the range
     * without blocking the calling warp. Subsequent accesses take
     * minor faults (or briefly wait on the in-flight transfer).
     *
     * @return the number of pages that were dropped because no free
     *         frame or page-table slot was available (also counted
     *         under `gpufs.prefetch_dropped`); 0 means every absent
     *         page of the range has a fill in flight
     */
    uint64_t
    gmadvise(sim::Warp& w, hostio::FileId f, uint64_t off, size_t len)
        AP_ELECTS_LEADER
    {
        uint64_t first = off / kPageBytes;
        uint64_t last = (off + len - 1) / kPageBytes;
        uint64_t dropped = 0;
        for (uint64_t p = first; p <= last; ++p) {
            PrefetchResult r = cache_.prefetchPage(
                w, makePageKey(w.tenant(), f, p));
            if (r == PrefetchResult::NoFrame ||
                r == PrefetchResult::NoEntry)
                ++dropped;
        }
        return dropped;
    }

    /** The page cache (used by the ActivePointers fault handler). */
    PageCache& cache() { return cache_; }

    /** The host I/O engine. */
    hostio::HostIoEngine& io() { return *io_; }

    /** The simulated device. */
    sim::Device& device() { return *dev_; }

  private:
    /** The gread/gwrite loop: @p write copies @p buf into the pages
     * (dirtying them), otherwise the pages into @p buf. */
    hostio::IoStatus transfer(sim::Warp& w, hostio::FileId f, uint64_t off,
                              size_t len, sim::Addr buf, bool write)
        AP_ELECTS_LEADER AP_YIELDS AP_MUST_CHECK AP_BALANCED;

    sim::Device* dev_;
    hostio::HostIoEngine* io_;
    PageCache cache_;
};

} // namespace ap::gpufs

#endif // AP_GPUFS_GPUFS_HH
