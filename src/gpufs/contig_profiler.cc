#include "gpufs/contig_profiler.hh"

#include <string>
#include <vector>

#include "util/logging.hh"

namespace ap::gpufs {

void
ContigProfiler::dropRunLength(uint64_t len)
{
    auto it = runLengths.find(len);
    AP_ASSERT(it != runLengths.end(),
              "contiguity profiler lost a run of length ", len);
    runLengths.erase(it);
}

void
ContigProfiler::noteResidentPage(PageKey key)
{
    auto& m = groups[groupOf(key)];
    const uint64_t p = pageKeyPageNo(key);
    uint64_t start = p;
    uint64_t len = 1;
    bool extended_left = false;

    auto it = m.upper_bound(p);
    if (it != m.begin()) {
        auto left = std::prev(it);
        if (left->first + left->second > p)
            return; // already resident (defensive: binds are per-frame)
        if (left->first + left->second == p) {
            dropRunLength(left->second);
            start = left->first;
            len = left->second + 1;
            m.erase(left);
            extended_left = true;
        }
    }
    auto right = m.find(p + 1);
    if (right != m.end()) {
        dropRunLength(right->second);
        len += right->second;
        m.erase(right);
        if (extended_left)
            merges.inc(); // p bridged two existing runs
    }
    m[start] = len;
    runLengths.insert(len);
    resident++;
    maxRun.setMax(static_cast<double>(len));
}

void
ContigProfiler::noteEvictedPage(PageKey key)
{
    auto gi = groups.find(groupOf(key));
    if (gi == groups.end())
        return;
    auto& m = gi->second;
    const uint64_t p = pageKeyPageNo(key);
    auto it = m.upper_bound(p);
    if (it == m.begin())
        return;
    --it;
    const uint64_t start = it->first;
    const uint64_t len = it->second;
    if (p >= start + len)
        return; // not resident (defensive)
    dropRunLength(len);
    m.erase(it);
    if (p > start) {
        m[start] = p - start;
        runLengths.insert(p - start);
    }
    if (p + 1 < start + len) {
        m[p + 1] = start + len - p - 1;
        runLengths.insert(start + len - p - 1);
    }
    if (p > start && p + 1 < start + len)
        splits.inc(); // interior eviction: one run became two
    resident--;
    if (m.empty())
        groups.erase(gi);
}

void
ContigProfiler::exportSnapshot() const
{
    StatGroup& st = *stats;
    // Reset every histogram under the contig. prefix from a previous
    // snapshot; the map is name-sorted, so the prefix range is
    // contiguous. (Collect names first: histogram() may insert.)
    std::vector<std::string> stale;
    for (const auto& [hname, h] : st.allHistograms()) {
        (void)h;
        if (hname.rfind("contig.", 0) == 0)
            stale.push_back(hname);
    }
    for (const std::string& hname : stale)
        st.histogram(hname).reset();

    Histogram& all = st.histogram("contig.runs");
    for (const auto& [g, m] : groups) {
        const PageKey gkey = g << tenant::kKeyFileShift;
        const tenant::TenantId asid = pageKeyAsid(gkey);
        std::string gname = "contig.";
        if (asid != tenant::kDefaultTenant)
            gname += "t" + std::to_string(asid) + ".";
        gname += "f" + std::to_string(pageKeyFile(gkey)) + ".runs";
        Histogram& gh = st.histogram(gname);
        for (const auto& [startPage, runLen] : m) {
            (void)startPage;
            all.record(static_cast<double>(runLen));
            gh.record(static_cast<double>(runLen));
        }
    }
    st.set("contig.resident_pages", static_cast<double>(resident));
    st.set("contig.resident_runs", static_cast<double>(runLengths.size()));
    st.set("contig.max_resident_run", static_cast<double>(maxRunNow()));
}

} // namespace ap::gpufs
