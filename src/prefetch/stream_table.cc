#include "prefetch/stream_table.hh"

#include <algorithm>
#include <cstdlib>

namespace ap::prefetch {

namespace {

/** a is at or past b, walking in @p stride's direction. */
bool
dirGe(int64_t a, int64_t b, int64_t stride)
{
    return stride >= 0 ? a >= b : a <= b;
}

} // namespace

StreamTable::StreamTable(const gpufs::ReadaheadConfig& cfg_) : cfg(cfg_)
{
    streams_.resize(std::max(1u, cfg.streams));
}

int
StreamTable::match(hostio::FileId file, uint64_t page) const
{
    // Exact continuation (or a re-fault on the stream's last page)
    // beats a stride candidate: an interleaved pair of sequential
    // streams must not capture each other's faults.
    for (int i = 0; i < size(); ++i) {
        const Stream& s = streams_[i];
        if (!s.valid || s.file != file)
            continue;
        if (page == s.lastPage)
            return i;
        if (s.stride != 0 &&
            static_cast<int64_t>(page) ==
                static_cast<int64_t>(s.lastPage) + s.stride)
            return i;
    }
    for (int i = 0; i < size(); ++i) {
        const Stream& s = streams_[i];
        if (!s.valid || s.file != file || s.stride != 0)
            continue;
        int64_t delta = static_cast<int64_t>(page) -
                        static_cast<int64_t>(s.lastPage);
        if (delta != 0 && std::llabs(delta) <= cfg.maxStridePages)
            return i;
    }
    return -1;
}

int
StreamTable::victim() const
{
    int best = 0;
    uint64_t oldest = UINT64_MAX;
    for (int i = 0; i < size(); ++i) {
        if (!streams_[i].valid)
            return i;
        if (streams_[i].lastUse < oldest) {
            oldest = streams_[i].lastUse;
            best = i;
        }
    }
    return best;
}

int
StreamTable::nearest(hostio::FileId file, uint64_t page) const
{
    int best = -1;
    int64_t bestDist = INT64_MAX;
    for (int i = 0; i < size(); ++i) {
        const Stream& s = streams_[i];
        if (!s.valid || s.file != file)
            continue;
        int64_t dist = std::llabs(static_cast<int64_t>(page) -
                                  static_cast<int64_t>(s.nextIssue));
        if (dist < bestDist) {
            bestDist = dist;
            best = i;
        }
    }
    return best;
}

StreamDecision
StreamTable::onFault(hostio::FileId file, uint64_t page)
{
    ++tick;
    StreamDecision d;
    int sid = match(file, page);
    if (sid < 0) {
        Stream& s = streams_[victim()];
        s = Stream{};
        s.valid = true;
        s.file = file;
        s.lastPage = page;
        s.conf = 1;
        s.lastUse = tick;
        return d;
    }

    Stream& s = streams_[sid];
    s.lastUse = tick;
    if (page == s.lastPage)
        return d; // re-fault on the same page: no progress
    int64_t delta =
        static_cast<int64_t>(page) - static_cast<int64_t>(s.lastPage);
    if (s.stride == 0) {
        // Second fault: the candidate stride, counting both faults.
        s.stride = delta;
        s.conf = 2;
    } else {
        ++s.conf;
    }
    s.lastPage = page;

    if (s.window == 0) {
        // A unit-stride (sequential) stream confirms at cfg.confirm.
        // A non-unit stride candidate was set from ONE arbitrary
        // delta — any two faults landing within maxStridePages look
        // like a "stream" — so it must prove itself with one exact
        // continuation before a window opens, or random access with
        // mild locality drowns in never-demanded speculation.
        uint32_t need =
            cfg.confirm + (std::llabs(s.stride) == 1 ? 0 : 1);
        if (s.conf < need)
            return d;
        // Stream confirmed: open the initial window just ahead.
        s.window = std::max(1u, cfg.initialWindow);
        s.nextIssue =
            static_cast<uint64_t>(static_cast<int64_t>(page) + s.stride);
    } else {
        // Confirmed stream: only a marker crossing (or a pending
        // retry after a fully-throttled issue) opens the next chunk.
        bool crossed =
            !s.markerArmed ||
            dirGe(static_cast<int64_t>(page),
                  static_cast<int64_t>(s.marker), s.stride);
        if (!crossed)
            return d;
        if (s.markerArmed) {
            // Feedback ramp: double per crossing unless the stream
            // thrashed since the last one (then hold flat one round).
            if (s.noGrow)
                s.noGrow = false;
            else
                s.window = std::min(s.window * 2, cfg.maxWindow);
        }
        // Never re-issue behind the application's own position.
        int64_t ahead = static_cast<int64_t>(page) + s.stride;
        if (dirGe(ahead, static_cast<int64_t>(s.nextIssue), s.stride))
            s.nextIssue = static_cast<uint64_t>(ahead);
    }

    d.issue = true;
    d.sid = sid;
    d.startPage = s.nextIssue;
    d.stride = s.stride;
    d.count = s.window;
    return d;
}

void
StreamTable::committed(int sid, uint32_t covered)
{
    Stream& s = streams_.at(sid);
    if (!s.valid)
        return;
    if (covered == 0) {
        // Fully throttled or dropped: leave the cursor alone and let
        // the next matching fault retry the issue.
        s.markerArmed = false;
        return;
    }
    s.nextIssue = static_cast<uint64_t>(
        static_cast<int64_t>(s.nextIssue) +
        s.stride * static_cast<int64_t>(covered));
    // Marker halfway into the covered chunk: crossing it issues the
    // next chunk while the tail of this one is still streaming in.
    s.marker = static_cast<uint64_t>(
        static_cast<int64_t>(s.nextIssue) -
        s.stride * static_cast<int64_t>((covered + 1) / 2));
    s.markerArmed = true;
}

void
StreamTable::onHit(hostio::FileId file, uint64_t page)
{
    int sid = nearest(file, page);
    if (sid < 0)
        return;
    // A consumed guess re-arms growth after a thrash episode.
    streams_[sid].noGrow = false;
}

void
StreamTable::onThrash(hostio::FileId file, uint64_t page)
{
    int sid = nearest(file, page);
    if (sid < 0)
        return;
    Stream& s = streams_[sid];
    if (s.window == 0)
        return; // unconfirmed streams have no window to shrink
    s.window = std::max(cfg.minWindow, s.window / 2);
    s.noGrow = true;
}

} // namespace ap::prefetch
