/**
 * @file
 * The benchmark's span recorder. It measures the program from outside:
 * every span wraps one call into a layer's public API, on one of two
 * clocks.
 *
 *  - Host spans (wall clock) wrap host-side calls only: the setup
 *    phases, Device::launch, serving::serve, PageCache::flushDirtyHost
 *    and verification. They nest; a span's self time is its duration
 *    minus the time its child spans cover.
 *  - Simulated spans (device cycles) wrap every apointer call a warp
 *    makes, inside one operation span (an access or a row) identified
 *    by (warp, iteration). A warp call's host interval would include
 *    other warps' work whenever it yields, so warp calls are timed on
 *    the simulated clock only.
 *
 * Aggregates (count, total, self) and the per-operation latencies are
 * always collected: they feed the end-to-end latency metrics and the
 * per-layer cycle metrics, and reading the simulated clock changes no
 * simulated behaviour. Raw events are kept only when tracing, only for
 * warps 0-3 and the host, and at most kMaxEvents of them.
 */

#ifndef AP_APBENCH_RECORDER_HH
#define AP_APBENCH_RECORDER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/aptr.hh"

namespace ap::apbench {

/** Every span the benchmark records. */
enum class Span : uint8_t {
    // host clock
    SetupStack,
    SetupInputs,
    SetupWarm,
    Run,
    Verify,
    Launch,
    Serve,
    Flush,
    // simulated clock, inside a warp
    Op,
    CopyUnlinked,
    Add,
    ReadFault,
    ReadLinked,
    Write,
    Destroy,
};

inline constexpr size_t kSpanCount = 15;

/** A span's printable name, owning layer, and clock. */
struct SpanInfo
{
    const char* name;
    const char* layer;
    bool host;
};

inline constexpr std::array<SpanInfo, kSpanCount> kSpans = {{
    {"setup.stack", "bench", true},
    {"setup.inputs", "bench", true},
    {"setup.warm", "bench", true},
    {"run", "bench", true},
    {"verify", "bench", true},
    {"Device::launch", "sim", true},
    {"serving::serve", "serving", true},
    {"PageCache::flushDirtyHost", "gpufs", true},
    {"op", "app", false},
    {"AptrVec::copyUnlinked", "core", false},
    {"AptrVec::add", "core", false},
    {"AptrVec::read.fault", "core", false},
    {"AptrVec::read.linked", "core", false},
    {"AptrVec::write", "core", false},
    {"AptrVec::destroy", "core", false},
}};
static_assert(size_t(Span::Destroy) + 1 == kSpanCount,
              "kSpans has one row per Span");

/** Per-span-name aggregate: host seconds or simulated cycles. */
struct SpanAgg
{
    uint64_t count = 0;
    double total = 0;
    double self = 0;

    double mean() const { return count ? total / double(count) : 0.0; }
};

class Recorder
{
  public:
    /** Raw events kept at most (the aggregates are never capped). */
    static constexpr size_t kMaxEvents = size_t(1) << 20;

    /** Iteration of a warp call made outside any operation. */
    static constexpr uint32_t kNoOp = UINT32_MAX;

    /** Warps whose simulated spans are kept as raw events. */
    static constexpr int kTracedWarps = 4;

    explicit Recorder(bool keep_events) : keepEvents_(keep_events) {}

    // --- host spans ----------------------------------------------------

    /** Open host span @p s; spans close in LIFO order. */
    void
    hostBegin(Span s)
    {
        stack_.push_back(Open{s, hostNow(), 0});
    }

    /** Close the innermost host span; @return its duration in s. */
    double
    hostEnd()
    {
        Open o = stack_.back();
        stack_.pop_back();
        const double t1 = hostNow();
        const double dur = t1 - o.t0;
        add(o.span, dur, dur - o.childSum);
        if (!stack_.empty())
            stack_.back().childSum += dur;
        keep(o.span, -1, 0, o.t0, t1);
        return dur;
    }

    // --- simulated spans ------------------------------------------------

    /** Start operation @p iter of warp @p w (an access or a row). */
    void
    opBegin(const sim::Warp& w, uint32_t iter)
    {
        WarpState& ws = warp(w.globalWarpId());
        ws.t0 = w.now();
        ws.childSum = 0;
        ws.iter = iter;
    }

    /** End the warp's current operation and record its latency. */
    void
    opEnd(const sim::Warp& w)
    {
        WarpState& ws = warp(w.globalWarpId());
        const double dur = w.now() - ws.t0;
        add(Span::Op, dur, dur - ws.childSum);
        opCycles_.push_back(dur);
        keep(Span::Op, w.globalWarpId(), ws.iter, ws.t0, w.now());
        ws.iter = kNoOp;
    }

    /** Run @p f, a warp-side call into a layer, as span @p s. */
    template <typename F>
    decltype(auto)
    call(sim::Warp& w, Span s, F&& f)
    {
        const sim::Cycles t0 = w.now();
        if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
            f();
            closeCall(w, s, t0);
        } else {
            auto r = f();
            closeCall(w, s, t0);
            return r;
        }
    }

    /** AptrVec::read as a span: the fault or the linked variant. */
    template <typename T>
    sim::LaneArray<T>
    read(sim::Warp& w, core::AptrVec<T>& p)
    {
        bool linked = true;
        for (int l = 0; l < sim::kWarpSize; ++l)
            linked = linked && p.linked(l);
        return call(w, linked ? Span::ReadLinked : Span::ReadFault,
                    [&] { return p.read(w); });
    }

    // --- results --------------------------------------------------------

    const SpanAgg& agg(Span s) const { return aggs_[size_t(s)]; }

    /** Every finished operation's latency, in cycles. */
    std::vector<double>& opCycles() { return opCycles_; }

    /**
     * Write the kept events as Chrome-trace JSON: the host spans on
     * process 0 in wall-clock microseconds, the simulated spans on
     * process 1 (one thread per warp) in simulated microseconds at
     * @p ghz. Operation spans carry their (warp, iteration) id.
     */
    bool writeChromeTrace(const std::string& path, double ghz) const;

    /** Write the per-span aggregate table: layer, clock, count, total,
     * self and mean of every span name. */
    bool writeLayerTable(const std::string& path) const;

  private:
    struct Open
    {
        Span span;
        double t0;
        double childSum;
    };

    struct WarpState
    {
        sim::Cycles t0 = 0;
        double childSum = 0;
        uint32_t iter = kNoOp;
    };

    struct Event
    {
        Span span;
        int warp; ///< -1 for host spans
        uint32_t iter;
        double t0;
        double t1;
    };

    static double
    hostNow()
    {
        using Clock = std::chrono::steady_clock;
        static const Clock::time_point epoch = Clock::now();
        return std::chrono::duration<double>(Clock::now() - epoch).count();
    }

    WarpState&
    warp(int gid)
    {
        if (static_cast<size_t>(gid) >= warps_.size())
            warps_.resize(static_cast<size_t>(gid) + 1);
        return warps_[static_cast<size_t>(gid)];
    }

    void
    closeCall(const sim::Warp& w, Span s, sim::Cycles t0)
    {
        const double dur = w.now() - t0;
        add(s, dur, dur);
        warp(w.globalWarpId()).childSum += dur;
        keep(s, w.globalWarpId(), warp(w.globalWarpId()).iter, t0,
             w.now());
    }

    void
    add(Span s, double dur, double self)
    {
        SpanAgg& a = aggs_[size_t(s)];
        a.count++;
        a.total += dur;
        a.self += self;
    }

    void
    keep(Span s, int warp, uint32_t iter, double t0, double t1)
    {
        if (!keepEvents_ || warp >= kTracedWarps)
            return;
        if (events_.size() >= kMaxEvents) {
            dropped_++;
            return;
        }
        events_.push_back(Event{s, warp, iter, t0, t1});
    }

    bool keepEvents_;
    std::array<SpanAgg, kSpanCount> aggs_{};
    std::vector<Open> stack_;
    std::vector<WarpState> warps_;
    std::vector<double> opCycles_;
    std::vector<Event> events_;
    uint64_t dropped_ = 0;
};

/** RAII host span; adds its duration in seconds to @p out if given. */
class HostSpan
{
  public:
    HostSpan(Recorder& rec, Span s, double* out = nullptr)
        : rec_(rec), out_(out)
    {
        rec_.hostBegin(s);
    }

    ~HostSpan()
    {
        double dur = rec_.hostEnd();
        if (out_)
            *out_ += dur;
    }

    HostSpan(const HostSpan&) = delete;
    HostSpan& operator=(const HostSpan&) = delete;

  private:
    Recorder& rec_;
    double* out_;
};

} // namespace ap::apbench

#endif // AP_APBENCH_RECORDER_HH
