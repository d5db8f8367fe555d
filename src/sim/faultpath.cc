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

/** Which layer owns each stage delta (the subsystem rollup key). */
const char*
stageSubsystem(FaultStage s)
{
    switch (s) {
      case FaultStage::Lookup: return "core";
      case FaultStage::Alloc: return "gpufs";
      case FaultStage::Enqueue:
      case FaultStage::TransferStart:
      case FaultStage::TransferEnd: return "hostio";
      case FaultStage::Fill: return "gpufs";
    }
    return "?";
}

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

uint64_t
FaultPath::begin(int track, int64_t file, uint64_t page, Cycles t)
{
    uint64_t fid = next_++;
    Rec& r = open_[fid];
    r.track = track;
    r.file = file;
    r.page = page;
    r.t0 = t;
    r.last = t;
    return fid;
}

void
FaultPath::stamp(uint64_t fid, FaultStage s, Cycles t)
{
    if (fid == 0)
        return;
    auto it = open_.find(fid);
    if (it == open_.end())
        return;
    Rec& r = it->second;
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
    if (fid == 0)
        return;
    auto it = open_.find(fid);
    if (it == open_.end())
        return;
    it->second.attempts++;
    stats_.inc("faultpath.retries");
}

void
FaultPath::end(uint64_t fid, FaultKind kind, Cycles t)
{
    if (fid == 0)
        return;
    auto it = open_.find(fid);
    if (it == open_.end())
        return;
    Rec r = it->second;
    open_.erase(it);

    const char* kn = faultKindName(kind);
    const std::string prefix = std::string("faultpath.") + kn + ".";
    stats_.inc("faultpath.faults." + std::string(kn));
    stats_.recordValue(prefix + "total", t - r.t0);
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
        stats_.recordValue(prefix + faultStageName(s), delta);
        stats_.recordValue(
            std::string("faultpath.subsys.") + stageSubsystem(s), delta);
        if (traced)
            tracer_.span(r.track, "faultstage",
                         std::string(kn) + "." + faultStageName(s), prev,
                         r.at[i], args);
        prev = r.at[i];
        prev_name = faultStageName(s);
    }
    stats_.recordValue(prefix + "wakeup", t - prev);
    stats_.recordValue("faultpath.subsys.sim", t - prev);
    if (traced) {
        tracer_.span(r.track, "faultstage",
                     std::string(kn) + ".wakeup", prev, t, args);
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
    for (const auto& [fid, r] : open_)
        reportChain("fpleak:", fid, "never closed", "drain", now,
                    r.lastName, r.last);
}

} // namespace ap::sim
