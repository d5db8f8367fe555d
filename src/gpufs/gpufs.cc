#include "gpufs/gpufs.hh"

#include <algorithm>

namespace ap::gpufs {

hostio::IoStatus
GpuFs::transfer(sim::Warp& w, hostio::FileId f, uint64_t off, size_t len,
                sim::Addr buf, bool write)
{
    size_t done = 0;
    while (done < len) {
        uint64_t cur = off + done;
        uint64_t page_no = cur / kPageBytes;
        size_t in_page = cur % kPageBytes;
        size_t chunk = std::min(len - done, kPageBytes - in_page);

        PageKey key = makePageKey(w.tenant(), f, page_no);
        AcquireResult r = cache_.acquirePage(w, key, 1, write);
        if (!r.ok())
            return r.status; // no reference held on the failed page
        if (write)
            w.copyGlobal(r.frameAddr + in_page, buf + done, chunk);
        else
            w.copyGlobal(buf + done, r.frameAddr + in_page, chunk);
        cache_.releasePage(w, key, 1);
        done += chunk;
    }
    return hostio::IoStatus::Ok;
}

} // namespace ap::gpufs
