#include "sim/faultpath.hh"

#include "sim/check/simcheck.hh"

namespace ap::sim {

const char*
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::Major: return "major";
      case FaultKind::Minor: return "minor";
      case FaultKind::SpecHit: return "spec_hit";
      case FaultKind::SpecFill: return "spec_fill";
      case FaultKind::Error: return "error";
    }
    return "?";
}

const char*
faultStageName(FaultStage s)
{
    switch (s) {
      case FaultStage::Lookup: return "lookup";
      case FaultStage::Alloc: return "alloc";
      case FaultStage::Enqueue: return "enqueue";
      case FaultStage::TransferStart: return "queue_wait";
      case FaultStage::TransferEnd: return "transfer";
      case FaultStage::Fill: return "fill";
    }
    return "?";
}

namespace {

/** The subsystem rollups, in FaultPath::subsys_ order. */
constexpr std::array<const char*, 4> kSubsysNames{"core", "gpufs",
                                                  "hostio", "sim"};

/** Which rollup owns each stage delta, indexed by FaultStage. */
constexpr std::array<size_t, kFaultStages> kStageSubsys{
    0, // Lookup: core
    1, // Alloc: gpufs
    2, // Enqueue: hostio
    2, // TransferStart (queue_wait): hostio
    2, // TransferEnd (transfer): hostio
    1, // Fill: gpufs
};

/** The rollup the wakeup remainder lands in. */
constexpr size_t kSimSubsys = 3;

/**
 * Report chain defect @p what of fault @p fid (dedup key @p key + id):
 * stamp @p name at cycle @p at follows stamp @p prev at @p prev_at.
 * Out of line and cold, so stamp() and end() keep small frames on the
 * warp fiber stacks.
 */
[[gnu::noinline, gnu::cold]] void
reportChain(const char* key, uint64_t fid, const char* what,
            const char* name, Cycles at, const char* prev, Cycles prev_at)
{
    check::SimCheck::get().report(
        check::ReportKind::Invariant, key + std::to_string(fid),
        "fault " + std::to_string(fid) + " " + what + ": '" + name +
            "' @ cycle " + std::to_string(at) + " after '" + prev +
            "' @ cycle " + std::to_string(prev_at));
}

} // namespace

const FaultPath::StatNames&
FaultPath::statNames()
{
    static const StatNames names = [] {
        StatNames n;
        for (size_t k = 0; k < kFaultKinds; ++k) {
            const std::string prefix =
                std::string("faultpath.") +
                faultKindName(static_cast<FaultKind>(k)) + ".";
            std::string* row = &n.stage[k * kCols];
            for (size_t i = 0; i < kFaultStages; ++i)
                row[i] = prefix + faultStageName(static_cast<FaultStage>(i));
            row[kWakeupCol] = prefix + "wakeup";
            row[kTotalCol] = prefix + "total";
            n.faults[k] = std::string("faultpath.faults.") +
                          faultKindName(static_cast<FaultKind>(k));
        }
        for (size_t i = 0; i < kSubsystems; ++i)
            n.subsys[i] = std::string("faultpath.subsys.") + kSubsysNames[i];
        return n;
    }();
    return names;
}

FaultPath::FaultPath(StatGroup& stats, Tracer& tracer)
    : tracer_(tracer),
      stage_(stats.handles<StatGroup::Hist>(statNames().stage)),
      subsys_(stats.handles<StatGroup::Hist>(statNames().subsys)),
      faults_(stats.handles<StatGroup::Counter>(statNames().faults)),
      retries_(stats, "faultpath.retries")
{
}

FaultPath::Rec*
FaultPath::find(uint64_t fid)
{
    if (fid == 0 || recs_.empty())
        return nullptr;
    Rec& r = recs_[fid & (recs_.size() - 1)];
    return r.fid == fid ? &r : nullptr;
}

void
FaultPath::grow()
{
    std::vector<Rec> wider(recs_.empty() ? 16 : 2 * recs_.size());
    // Two IDs in distinct slots stay distinct in a table twice as wide.
    for (const Rec& r : recs_)
        if (r.fid != 0)
            wider[r.fid & (wider.size() - 1)] = r;
    recs_.swap(wider);
}

uint64_t
FaultPath::begin(int track, int64_t file, uint64_t page, Cycles t)
{
    const uint64_t fid = next_++;
    while (recs_.empty() || recs_[fid & (recs_.size() - 1)].fid != 0)
        grow();
    Rec& r = recs_[fid & (recs_.size() - 1)];
    r = Rec{};
    r.fid = fid;
    r.track = track;
    r.file = file;
    r.page = page;
    r.t0 = t;
    r.last = t;
    ++open_;
    return fid;
}

void
FaultPath::stamp(uint64_t fid, FaultStage s, Cycles t)
{
    Rec* rec = find(fid);
    if (!rec)
        return;
    Rec& r = *rec;
    size_t i = static_cast<size_t>(s);
    // Lookup and Enqueue keep the first stamp (re-probes after a lost
    // insert race and retry re-submissions must not move an earlier
    // stage past a later one); transfer stamps keep the latest so the
    // transfer delta reflects the attempt that actually succeeded.
    if (r.has[i] && (s == FaultStage::Enqueue || s == FaultStage::Lookup))
        return;
    r.has[i] = true;
    r.at[i] = t;
    if (check::SimCheck::armed && t < r.last)
        reportChain("fpmono:", fid, "stage chain moved backwards in time",
                    faultStageName(s), t, r.lastName, r.last);
    r.last = t;
    r.lastName = faultStageName(s);
}

void
FaultPath::attempt(uint64_t fid)
{
    Rec* r = find(fid);
    if (!r)
        return;
    r->attempts++;
    retries_.inc();
}

void
FaultPath::end(uint64_t fid, FaultKind kind, Cycles t)
{
    Rec* rec = find(fid);
    if (!rec)
        return;
    const Rec r = *rec;
    rec->fid = 0;
    --open_;

    const size_t k = static_cast<size_t>(kind);
    StatGroup::Hist* hist = &stage_[k * kCols];
    faults_[k].inc();
    hist[kTotalCol].record(t - r.t0);
    const bool armed = check::SimCheck::armed;
    if (armed && t < r.last)
        reportChain("fpmono:", fid, "closed before its last stamp", "close",
                    t, r.lastName, r.last);

    const bool traced = tracer_.enabled();
    Tracer::Args args;
    if (traced)
        args = {{"fault", static_cast<double>(fid)},
                {"file", static_cast<double>(r.file)},
                {"page", static_cast<double>(r.page)},
                {"attempt", static_cast<double>(r.attempts)}};

    // Stage deltas between consecutive present stamps telescope to
    // the end-to-end latency; the remainder after the last stamp is
    // the waiter wakeup. A negative delta is a stage stamped before
    // the one it follows.
    Cycles prev = r.t0;
    const char* prev_name = "open";
    for (size_t i = 0; i < kFaultStages; i++) {
        if (!r.has[i])
            continue;
        auto s = static_cast<FaultStage>(i);
        Cycles delta = r.at[i] - prev;
        if (armed && delta < 0)
            reportChain("fpchain:", fid, "final stage chain out of order",
                        faultStageName(s), r.at[i], prev_name, prev);
        hist[i].record(delta);
        subsys_[kStageSubsys[i]].record(delta);
        if (traced)
            tracer_.span(r.track, "faultstage",
                         std::string(faultKindName(kind)) + "." +
                             faultStageName(s),
                         prev, r.at[i], args);
        prev = r.at[i];
        prev_name = faultStageName(s);
    }
    hist[kWakeupCol].record(t - prev);
    subsys_[kSimSubsys].record(t - prev);
    if (traced) {
        tracer_.span(r.track, "faultstage",
                     std::string(faultKindName(kind)) + ".wakeup", prev, t,
                     args);
        // One flow per fault: warp track at aggregation, a hop on the
        // host-IO track when the fault reached DMA, back to the warp
        // track at wakeup — Perfetto draws the arrows across tracks.
        tracer_.flowStart(fid, r.track, "fault", "fault", r.t0);
        size_t ts = static_cast<size_t>(FaultStage::TransferStart);
        if (r.has[ts])
            tracer_.flowStep(fid, kHostIoTrack, "fault", "fault",
                             r.at[ts]);
        tracer_.flowEnd(fid, r.track, "fault", "fault", t);
    }
}

void
FaultPath::auditClosed(Cycles now) const
{
    if (!check::SimCheck::armed)
        return;
    // Every open fault is among the last recs_.size() IDs, so walking
    // them reports the leaks in fault-ID order.
    const uint64_t n = recs_.size();
    for (uint64_t fid = next_ > n ? next_ - n : 1; fid < next_; ++fid) {
        const Rec& r = recs_[fid & (n - 1)];
        if (r.fid == fid)
            reportChain("fpleak:", fid, "never closed", "drain", now,
                        r.lastName, r.last);
    }
}

} // namespace ap::sim
