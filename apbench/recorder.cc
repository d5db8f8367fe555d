#include "recorder.hh"

#include <fstream>

#include "util/json.hh"
#include "util/table.hh"

namespace ap::apbench {

bool
Recorder::writeChromeTrace(const std::string& path, double ghz) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
          "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
          "\"args\":{\"name\":\"host (wall clock)\"}},\n"
          "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
          "\"args\":{\"name\":\"simulated GPU (device clock)\"}}";
    // Host seconds and simulated cycles both become microseconds.
    const double us_per_cycle = 1e-3 / ghz;
    for (const Event& e : events_) {
        const SpanInfo& info = kSpans[size_t(e.span)];
        const bool host = e.warp < 0;
        const double scale = host ? 1e6 : us_per_cycle;
        os << ",\n{\"ph\":\"X\",\"name\":";
        json::quote(os, info.name);
        os << ",\"cat\":";
        json::quote(os, info.layer);
        os << ",\"pid\":" << (host ? 0 : 1) << ",\"tid\":"
           << (host ? 0 : e.warp) << ",\"ts\":";
        json::number(os, e.t0 * scale);
        os << ",\"dur\":";
        json::number(os, (e.t1 - e.t0) * scale);
        if (!host && e.iter != kNoOp)
            os << ",\"args\":{\"id\":\"" << e.warp << "." << e.iter
               << "\"}";
        os << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

bool
Recorder::writeLayerTable(const std::string& path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    TextTable t;
    t.header({"span", "layer", "clock", "count", "total", "self",
              "mean"});
    for (size_t i = 0; i < kSpanCount; ++i) {
        const SpanAgg& a = aggs_[i];
        if (!a.count)
            continue;
        const SpanInfo& info = kSpans[i];
        t.row({info.name, info.layer, info.host ? "host s" : "cycles",
               std::to_string(a.count), TextTable::num(a.total, 6),
               TextTable::num(a.self, 6), TextTable::num(a.mean(), 6)});
    }
    t.print(os);
    if (dropped_)
        os << "\n" << dropped_ << " raw events dropped at the "
           << kMaxEvents << "-event cap\n";
    return static_cast<bool>(os);
}

} // namespace ap::apbench
