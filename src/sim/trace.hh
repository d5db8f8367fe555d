/**
 * @file
 * Optional event tracing in the Chrome trace-event format
 * (chrome://tracing, Perfetto). When enabled, the simulator records
 * spans for kernel launches, page faults, DMA transfers, and similar
 * long-lived activities; the result visualizes latency hiding, fault
 * aggregation, and transfer batching directly. Flow events (ph "s"/
 * "f") link the spans of one page fault across the warp, page-cache,
 * and host tracks, and spans carry args (fault id, file, page,
 * attempt) for filtering in the viewer.
 *
 * Disabled by default and cheap to leave compiled in: every hook is a
 * single branch on enabled(). Recording is bounded: past the event
 * cap new events are dropped (counted, warned once) instead of
 * growing without limit on long runs.
 */

#ifndef AP_SIM_TRACE_HH
#define AP_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "util/stats.hh"

namespace ap::sim {

/** Track ids below the warp tracks (warp tracks are >= 0): kernel
 * launch spans, host-IO DMA batches, speculative prefetch fills, and
 * telemetry counter series. */
constexpr int kKernelTrack = -1;
constexpr int kHostIoTrack = -2;
constexpr int kPrefetchTrack = -3;
constexpr int kTelemetryTrack = -4;

/** Minimum cycles between two samples of one telemetry counter
 * series: emitters hold the previous emission cycle and skip samples
 * inside the window, bounding trace growth on hot paths. */
constexpr Cycles kCounterIntervalCycles = 256;

/** A trace-event recorder. One per Device. */
class Tracer
{
  public:
    /** Named numeric annotations attached to a span. */
    using Args = std::vector<std::pair<const char*, double>>;

    /** Start recording. */
    void enable() { on = true; }

    /** Stop recording (events are kept). */
    void disable() { on = false; }

    /** True while recording. */
    bool enabled() const { return on; }

    /** Number of recorded events. */
    size_t size() const { return events.size(); }

    /** Events refused because the cap was reached. */
    uint64_t dropped() const { return drops; }

    /** Discard all recorded events (drop count survives in stats). */
    void
    clear()
    {
        events.clear();
        drops = 0;
        warned = false;
    }

    /**
     * Bound recording to @p cap events; once full, further events are
     * dropped and counted as trace.dropped_events. The default keeps
     * roughly 100 MB of events on a pathological run.
     */
    void setEventCap(size_t cap) { eventCap = cap; }

    /** Registry receiving trace.dropped_events (may be null). */
    void setStats(StatGroup* s) { stats = s; }

    /**
     * Record a complete span.
     * @param track lane of the timeline (e.g. a warp id, or a
     *              negative id for host-side tracks)
     * @param category short grouping tag ("mem", "fault", "dma", ...)
     * @param name  event label
     * @param start span start in cycles
     * @param end   span end in cycles
     * @param args  optional numeric annotations shown in the viewer
     */
    void
    span(int track, const char* category, std::string name, Cycles start,
         Cycles end, Args args = {})
    {
        if (!on)
            return;
        push(Event{track, category, std::move(name), start, end, 'X', 0,
                   std::move(args)});
    }

    /** Record an instantaneous event. */
    void
    instant(int track, const char* category, std::string name, Cycles at)
    {
        span(track, category, std::move(name), at, at);
    }

    /**
     * Open flow @p id at @p at: Perfetto draws an arrow from here to
     * every flowStep/flowEnd with the same id. Place it inside (or at
     * the start of) the producing span on the same track.
     */
    void
    flowStart(uint64_t id, int track, const char* category,
              std::string name, Cycles at)
    {
        if (!on)
            return;
        push(Event{track, category, std::move(name), at, at, 's', id, {}});
    }

    /** Intermediate hop of flow @p id on another track. */
    void
    flowStep(uint64_t id, int track, const char* category,
             std::string name, Cycles at)
    {
        if (!on)
            return;
        push(Event{track, category, std::move(name), at, at, 't', id, {}});
    }

    /** Terminate flow @p id at @p at (binds to the enclosing slice). */
    void
    flowEnd(uint64_t id, int track, const char* category,
            std::string name, Cycles at)
    {
        if (!on)
            return;
        push(Event{track, category, std::move(name), at, at, 'f', id, {}});
    }

    /**
     * Record a counter sample (Chrome phase "C"): the viewer draws one
     * stacked area chart per @p name with the sampled @p value. The
     * telemetry layer emits occupancy series this way (TLB entries,
     * free frames, reserve depth, max resident run); emitters throttle
     * themselves (see kCounterIntervalCycles) so a hot loop cannot
     * flood the event buffer with samples.
     */
    void
    counterEvent(int track, const char* category, std::string name,
                 Cycles at, double value)
    {
        if (!on)
            return;
        push(Event{track, category, std::move(name), at, at, 'C', 0,
                   Args{{"value", value}}});
    }

    /**
     * Serialize as a Chrome trace-event JSON object with a
     * displayTimeUnit so viewers render cycles consistently; cycles
     * map to microseconds 1:1 so one tick in the viewer is one cycle.
     * The envelope carries "droppedEvents" (events refused past the
     * cap) so offline consumers — apstat warns when it is nonzero —
     * can tell a complete trace from a truncated one.
     */
    void writeJson(std::ostream& os) const;

  private:
    struct Event
    {
        int track;
        const char* category;
        std::string name;
        Cycles start;
        Cycles end;
        char phase;      // 'X' span, 's'/'t'/'f' flow, 'C' counter
        uint64_t flowId; // meaningful for 's'/'f' only
        Args args;
    };

    void push(Event e);

    bool on = false;
    bool warned = false;
    size_t eventCap = 1u << 20;
    uint64_t drops = 0;
    StatGroup* stats = nullptr;
    std::vector<Event> events;
};

} // namespace ap::sim

#endif // AP_SIM_TRACE_HH
