/**
 * @file
 * The readahead stream table: detects sequential and strided demand
 * fault streams per file and carries each stream's adaptive window
 * (DESIGN.md section 11). Pure host-side bookkeeping — no simulated
 * memory, no time sources, no randomness — so detection is exactly
 * reproducible and unit-testable without a device.
 *
 * The shape follows Linux readahead: a stream confirms after
 * `confirm` faults with a consistent stride (non-unit strides need
 * one extra exact continuation, since any two faults within
 * maxStridePages of each other form a stride candidate), the first
 * confirmation issues `initialWindow` pages ahead, and a *marker*
 * page planted halfway into each issued chunk triggers the next chunk
 * asynchronously — the window doubles on each crossing up to
 * `maxWindow` (feedback ramp) and halves on thrash (speculative pages
 * evicted unused or poisoned fills) down to `minWindow`.
 */

#ifndef AP_PREFETCH_STREAM_TABLE_HH
#define AP_PREFETCH_STREAM_TABLE_HH

#include <cstdint>
#include <vector>

#include "gpufs/config.hh"
#include "hostio/backing_store.hh"

namespace ap::prefetch {

/** What the table wants issued in response to one fault. */
struct StreamDecision
{
    /** True if a readahead chunk should be issued. */
    bool issue = false;
    /** Stream that decided (valid when issue is set; else -1). */
    int sid = -1;
    /** First page to issue. */
    uint64_t startPage = 0;
    /** Pages between issued pages (may be negative: backward scan). */
    int64_t stride = 1;
    /** Pages wanted, before throttling. */
    uint32_t count = 0;
};

/** One detected fault stream. Exposed for tests and diagnostics. */
struct Stream
{
    bool valid = false;
    hostio::FileId file = 0;
    /** Last demand-faulted page matched to this stream. */
    uint64_t lastPage = 0;
    /** Confirmed or candidate stride in pages; 0 = single fault. */
    int64_t stride = 0;
    /** Consecutive consistent faults (confirmed at cfg.confirm). */
    uint32_t conf = 0;
    /** Current window in pages; 0 until the stream confirms. */
    uint32_t window = 0;
    /** Next page readahead would issue. */
    uint64_t nextIssue = 0;
    /** Crossing this page triggers the next chunk (when armed). */
    uint64_t marker = 0;
    bool markerArmed = false;
    /** Set by thrash: the next ramp keeps the window flat once. */
    bool noGrow = false;
    /** LRU tick of the last match. */
    uint64_t lastUse = 0;
};

/**
 * Fixed-size table of streams, LRU-recycled. All methods are host
 * logic called from warp fibers (leader-only contexts) or, for the
 * feedback entry points, from host-side DMA completions; the
 * simulation is single-threaded, so no locking is needed.
 */
class StreamTable
{
  public:
    explicit StreamTable(const gpufs::ReadaheadConfig& cfg);

    /**
     * A demand fault on (file, page) — major or minor; both advance
     * stream state, since with readahead working the stream's faults
     * are mostly minors on speculatively-filled pages.
     */
    StreamDecision onFault(hostio::FileId file, uint64_t page);

    /**
     * The issuer placed @p covered pages of the decision @p sid
     * (started or found resident) before stopping; throttling and
     * drops make this smaller than the decision's count. Advances the
     * stream's issue cursor and plants the marker halfway into the
     * covered chunk; with nothing covered the marker stays unarmed,
     * so the next matching fault retries the issue.
     */
    void committed(int sid, uint32_t covered);

    /** Feedback: a speculative page was consumed by demand. */
    void onHit(hostio::FileId file, uint64_t page);

    /** Feedback: a speculative page was wasted (evicted or poisoned). */
    void onThrash(hostio::FileId file, uint64_t page);

    /** Stream slot @p sid (tests/diagnostics). */
    const Stream& stream(int sid) const { return streams_.at(sid); }

    /** Number of slots (== cfg.streams). */
    int size() const { return static_cast<int>(streams_.size()); }

  private:
    /** Slot of the stream matching (file, page), or -1. */
    int match(hostio::FileId file, uint64_t page) const;

    /** Slot to recycle for a new stream (invalid first, else LRU). */
    int victim() const;

    /** Stream whose issued region is closest to (file, page). */
    int nearest(hostio::FileId file, uint64_t page) const;

    gpufs::ReadaheadConfig cfg;
    std::vector<Stream> streams_;
    uint64_t tick = 0;
};

} // namespace ap::prefetch

#endif // AP_PREFETCH_STREAM_TABLE_HH
