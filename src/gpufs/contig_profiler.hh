/**
 * @file
 * Resident-contiguity profiler: tracks, per (tenant, file), the
 * contiguous runs of pages currently resident in the page cache. Run
 * lengths are the direct estimate of how much a Mosaic-style coalescer
 * or a range-TLB could compress translations: a cache holding its
 * residency in long runs leaves coalescing opportunity on the table
 * for every PTE it keeps per-page.
 *
 * Maintained incrementally from the cache's frame bind/unbind
 * notifications: O(log runs) per event via interval maps, so the
 * fault path never scans residency. Always-on counters (contig.merges,
 * contig.splits, contig.max_run) are cheap: the profiler is bound to
 * its StatGroup at construction and charges them through handles. The
 * full run-length histograms are rebuilt on demand by exportSnapshot().
 */

#ifndef AP_GPUFS_CONTIG_PROFILER_HH
#define AP_GPUFS_CONTIG_PROFILER_HH

#include <cstdint>
#include <map>
#include <set>

#include "gpufs/page_table.hh"
#include "util/stats.hh"

namespace ap::gpufs {

/** Tracks resident contiguous page runs per (tenant, file) group. */
class ContigProfiler
{
  public:
    /** Charge every stat to @p st. */
    explicit ContigProfiler(StatGroup& st)
        : stats(&st), merges(st, "contig.merges"),
          splits(st, "contig.splits"), maxRun(st, "contig.max_run")
    {
    }

    /**
     * Page @p key became resident (its frame was bound). Extends or
     * fuses neighbouring runs; a fuse of two existing runs counts
     * contig.merges, and the resulting run length feeds the
     * contig.max_run high-water scalar.
     */
    void noteResidentPage(PageKey key);

    /**
     * Page @p key left residency (its frame was unbound). Shrinks or
     * splits the containing run; an interior eviction that splits one
     * run into two counts contig.splits.
     */
    void noteEvictedPage(PageKey key);

    /** Pages currently resident (as seen through bind/unbind). */
    uint64_t residentPages() const { return resident; }

    /** Number of distinct resident runs right now. */
    uint64_t runCount() const { return runLengths.size(); }

    /** Length of the longest resident run right now (0 when empty). */
    uint64_t
    maxRunNow() const
    {
        return runLengths.empty() ? 0 : *runLengths.rbegin();
    }

    /**
     * Rebuild the snapshot statistics: the aggregate
     * contig.runs histogram, one contig.[t<asid>.]f<file>.runs
     * histogram per group with resident pages, and the
     * contig.resident_pages / contig.resident_runs /
     * contig.max_resident_run scalars. Histograms under the contig.
     * prefix are reset first, so a group that went fully non-resident
     * never lingers stale from an earlier snapshot.
     */
    void exportSnapshot() const;

  private:
    /** (tenant, file) group of @p key: everything above the page no. */
    static uint64_t groupOf(PageKey key)
    {
        return key >> tenant::kKeyFileShift;
    }

    /** Remove one instance of @p len from the run-length multiset. */
    void dropRunLength(uint64_t len);

    /** Per-group interval map: run start page -> run length. */
    std::map<uint64_t, std::map<uint64_t, uint64_t>> groups;

    /** All current run lengths (across groups), for O(log n) max. */
    std::multiset<uint64_t> runLengths;

    uint64_t resident = 0;

    StatGroup* stats;
    StatGroup::Counter merges;
    StatGroup::Counter splits;
    StatGroup::Peak maxRun;
};

} // namespace ap::gpufs

#endif // AP_GPUFS_CONTIG_PROFILER_HH
