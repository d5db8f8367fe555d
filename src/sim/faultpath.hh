/**
 * @file
 * Fault-path observability: every page fault gets a monotonically
 * increasing fault ID threaded from the faulting warp's aggregation
 * step down through page-table lookup, frame allocation, host-IO
 * enqueue, DMA transfer (including retry attempts), fill, and waiter
 * wakeup. Each layer stamps the ID with the current simulated cycle;
 * when the fault completes, the recorder turns the stamp chain into
 *
 *  - per-stage and end-to-end latency histograms in the stats
 *    registry (faultpath.<kind>.<stage>, faultpath.<kind>.total, and
 *    per-subsystem rollups faultpath.subsys.<subsystem>),
 *  - per-stage tracer spans (category "faultstage") nested under the
 *    fault's span, with args (fault id, file, page, attempt),
 *  - flow events linking the fault's spans across the warp and host
 *    tracks in Perfetto.
 *
 * When simcheck is armed the recorder audits its own records: a stamp
 * or close earlier than the previous stamp, a final chain out of stage
 * order, and a fault still open when a launch drains are Invariant
 * reports.
 *
 * Stage deltas are taken between consecutive *present* stamps, so the
 * per-stage durations always telescope exactly to the end-to-end
 * latency — the stage table sums to the total by construction.
 *
 * The recorder is always on; only the tracer output is gated. An
 * open record lives in the slot its fault ID selects (see recs_), so
 * once the table is wide enough, a fault allocates nothing and each
 * stamp reads one slot. Every counter and histogram it charges goes
 * through a StatGroup handle built in the constructor over a
 * process-wide name table, so an untraced end() or attempt() builds
 * no string and walks no stats map. Stamping an unknown or zero fault
 * ID is a no-op, so callers outside a recorded fault (unit tests
 * poking the page cache directly) need no guards.
 */

#ifndef AP_SIM_FAULTPATH_HH
#define AP_SIM_FAULTPATH_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"
#include "util/stats.hh"

namespace ap::sim {

/** How a fault resolved; keys the histogram namespace. */
enum class FaultKind {
    Major,    ///< missed the page table, waited for host I/O
    Minor,    ///< hit a Ready (or direct-mapped) page
    SpecHit,  ///< demand fault consumed a speculative readahead fill
    SpecFill, ///< the speculative fill itself (no waiting warp)
    Error,    ///< resolved to an I/O error
};

/** Number of FaultKind values. */
inline constexpr size_t kFaultKinds = 5;

/** Printable name of @p k ("major", "minor", ...). */
const char* faultKindName(FaultKind k);

/**
 * The stamped points along a fault's life, in causal order. The delta
 * from the previous present stamp is attributed to the stage's name:
 * Lookup covers aggregation + page-table probe, Alloc covers frame
 * allocation/eviction, Enqueue covers request construction up to
 * submission, TransferStart's delta is the queue wait (batch window +
 * retry backoff), TransferEnd's is the DMA itself, Fill covers
 * staging-to-frame copy + publish, and the remainder to end() is the
 * waiter wakeup.
 */
enum class FaultStage {
    Lookup,
    Alloc,
    Enqueue,
    TransferStart,
    TransferEnd,
    Fill,
};

/** Number of FaultStage values. */
inline constexpr size_t kFaultStages = 6;

/** Printable stage-delta name ("lookup", ..., "queue_wait", ...). */
const char* faultStageName(FaultStage s);

/**
 * The per-device fault recorder. Warps reach it via Warp::faultPath()
 * (the fault handler opens/closes faults), host-side components via
 * Device::faultPath() (the host-IO engine stamps transfer progress
 * against the fault ID captured in its request).
 */
class FaultPath
{
  public:
    /** Record into @p stats; emit spans into @p tracer when enabled. */
    FaultPath(StatGroup& stats, Tracer& tracer);

    /**
     * Open a fault record and return its ID (never 0).
     * @param track tracer track the fault's spans belong on (the
     *              faulting warp's id, or a host track for
     *              speculative fills)
     * @param file  faulting file id
     * @param page  faulting page index within the file
     * @param t     cycle of the aggregation step
     */
    uint64_t begin(int track, int64_t file, uint64_t page, Cycles t);

    /**
     * Stamp stage @p s of fault @p fid at cycle @p t. Lookup and
     * Enqueue keep the first stamp (so queue_wait includes retry
     * backoff and a re-probe cannot reorder stages); other stages
     * keep the latest (so transfer reflects the attempt that
     * succeeded). No-op when @p fid is 0 or unknown.
     */
    void stamp(uint64_t fid, FaultStage s, Cycles t);

    /** Count a retry attempt against fault @p fid. */
    void attempt(uint64_t fid);

    /**
     * Close fault @p fid at cycle @p t as @p kind: records the
     * histograms, emits the stage spans and flow events, and drops
     * the record. No-op when @p fid is 0 or unknown.
     */
    void end(uint64_t fid, FaultKind kind, Cycles t);

    /** Faults opened so far (the last issued ID). */
    uint64_t issued() const { return next_ - 1; }

    /** Faults currently open (should be 0 at quiescence). */
    size_t openCount() const { return open_; }

    /**
     * Quiescence audit (simcheck armed): report every fault still open
     * when the engine drained at cycle @p now, since none can close.
     */
    void auditClosed(Cycles now) const;

  private:
    struct Rec
    {
        uint64_t fid = 0; ///< 0 while the slot is free
        int track;
        int64_t file;
        uint64_t page;
        Cycles t0;
        uint32_t attempts = 0;
        Cycles last = 0;                ///< latest stamp (t0 at begin)
        const char* lastName = "open";  ///< its stage name
        std::array<Cycles, kFaultStages> at{};
        std::array<bool, kFaultStages> has{};
    };

    /** Histogram columns per kind: one per stage, then wakeup, total. */
    static constexpr size_t kWakeupCol = kFaultStages;
    static constexpr size_t kTotalCol = kFaultStages + 1;
    static constexpr size_t kCols = kFaultStages + 2;
    /** Subsystem rollups: core, gpufs, hostio, sim. */
    static constexpr size_t kSubsystems = 4;

    /** Every stat name the recorder charges, in handle-table order. */
    struct StatNames
    {
        std::array<std::string, kFaultKinds * kCols> stage;
        std::array<std::string, kSubsystems> subsys;
        std::array<std::string, kFaultKinds> faults;
    };

    /** The names, built once per process: the handles point into them. */
    static const StatNames& statNames();

    /** The open record of @p fid, or nullptr (0 and unknown IDs). */
    Rec* find(uint64_t fid);

    /** Double the table, moving each open record to its new slot
     * (cold: a table stops growing once it spans the open IDs). */
    [[gnu::cold]] void grow();

    Tracer& tracer_;
    uint64_t next_ = 1;
    size_t open_ = 0;
    /**
     * The records, fault ID f in slot f mod size (a power of two).
     * begin() doubles the table while its slot holds an older open
     * fault, so every open fault is among the last size IDs. On
     * apbench at seed 1 the open IDs span at most 247 (serve), 293
     * (translate), 31 (stream-rw) and 832 (hitpath), with 64, 128, 28
     * and 832 faults open at once. A fault left open for good (a
     * simcheck fpleak) doubles the table each time the IDs come round
     * to its slot.
     */
    std::vector<Rec> recs_;
    /** faultpath.<kind>.<column>, indexed kind * kCols + column. */
    std::array<StatGroup::Hist, kFaultKinds * kCols> stage_;
    /** faultpath.subsys.<subsystem>. */
    std::array<StatGroup::Hist, kSubsystems> subsys_;
    /** faultpath.faults.<kind>. */
    std::array<StatGroup::Counter, kFaultKinds> faults_;
    StatGroup::Counter retries_; ///< faultpath.retries
};

} // namespace ap::sim

#endif // AP_SIM_FAULTPATH_HH
