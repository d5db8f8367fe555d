#include "statsreport.hh"

#include <algorithm>
#include <string_view>
#include <vector>

#include "util/table.hh"

namespace ap::apstat {

namespace {

bool
startsWith(const std::string& s, std::string_view prefix)
{
    return s.rfind(prefix, 0) == 0;
}

double
lookupOr(const std::map<std::string, double>& m, const std::string& key)
{
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

/** Append one histogram-summary row (count..p99) labeled @p label. */
void
summaryRow(TextTable& t, const std::string& label,
           const StatsReport::HistSummary& h)
{
    t.row({label, TextTable::num(h.count, 0), TextTable::num(h.min),
           TextTable::num(h.max), TextTable::num(h.mean),
           TextTable::num(h.p50), TextTable::num(h.p95),
           TextTable::num(h.p99)});
}

/**
 * Shared dead-entry table: one evicted/DoA/DoA% row per
 * `<prefix>.evict.<reason>` counter the dump carries, in key order,
 * plus the total.
 */
void
deadEntryTable(std::ostream& os, const StatsReport& r,
               const std::string& prefix)
{
    const std::string evict_prefix = prefix + ".evict.";
    const std::string doa_prefix = prefix + ".doa.";
    TextTable t;
    t.header({"reason", "evicted", "doa", "doa%"});
    double evict_total = 0;
    double doa_total = 0;
    for (auto it = r.counters.lower_bound(evict_prefix);
         it != r.counters.end() && startsWith(it->first, evict_prefix);
         ++it) {
        const std::string reason = it->first.substr(evict_prefix.size());
        double ev = it->second;
        double doa = lookupOr(r.counters, doa_prefix + reason);
        evict_total += ev;
        doa_total += doa;
        if (ev == 0 && doa == 0)
            continue;
        t.row({reason, TextTable::num(ev, 0), TextTable::num(doa, 0),
               ev > 0 ? TextTable::pct(doa / ev) : "-"});
    }
    t.row({"total", TextTable::num(evict_total, 0),
           TextTable::num(doa_total, 0),
           evict_total > 0 ? TextTable::pct(doa_total / evict_total)
                           : "-"});
    t.print(os);
}

} // namespace

bool
StatsReport::build(const JsonValue& doc, std::string& err)
{
    if (!doc.isObject()) {
        err = "stats document is not an object";
        return false;
    }
    const JsonValue* cs = doc.find("counters");
    const JsonValue* ss = doc.find("scalars");
    const JsonValue* hs = doc.find("histograms");
    if (!cs || !ss || !hs || !cs->isObject() || !ss->isObject() ||
        !hs->isObject()) {
        err = "not a stats dump (need \"counters\", \"scalars\", and "
              "\"histograms\" objects)";
        return false;
    }
    for (const auto& [name, v] : cs->obj)
        if (v.isNumber())
            counters[name] = v.number;
    for (const auto& [name, v] : ss->obj)
        if (v.isNumber())
            scalars[name] = v.number;
    for (const auto& [name, v] : hs->obj) {
        if (!v.isObject())
            continue;
        HistSummary h;
        h.count = v.numberOr("count", 0);
        h.min = v.numberOr("min", 0);
        h.max = v.numberOr("max", 0);
        h.mean = v.numberOr("mean", 0);
        h.p50 = v.numberOr("p50", 0);
        h.p95 = v.numberOr("p95", 0);
        h.p99 = v.numberOr("p99", 0);
        hists[name] = h;
    }
    return true;
}

bool
StatsReport::hasTlb() const
{
    for (const auto& [name, v] : counters) {
        (void)v;
        if (startsWith(name, "tlb."))
            return true;
    }
    return hists.count("tlb.entry_lifetime") ||
           hists.count("tlb.reuse_distance");
}

bool
StatsReport::hasPageCache() const
{
    for (const auto& [name, v] : counters) {
        (void)v;
        if (startsWith(name, "pagecache.evict.") ||
            startsWith(name, "pagecache.doa.") ||
            startsWith(name, "pagecache.life."))
            return true;
    }
    return hists.count("pagecache.life.lifetime") != 0;
}

bool
StatsReport::hasContig() const
{
    if (hists.count("contig.runs"))
        return true;
    for (const auto& [name, v] : scalars) {
        (void)v;
        if (startsWith(name, "contig."))
            return true;
    }
    return false;
}

bool
StatsReport::hasTenants() const
{
    for (const auto& [name, v] : counters) {
        (void)v;
        if (startsWith(name, "tenant.t"))
            return true;
    }
    return false;
}

void
StatsReport::printTlbTable(std::ostream& os) const
{
    os << "TLB dead-entry breakdown (entries evicted with zero hits):\n";
    deadEntryTable(os, *this, "tlb");
    TextTable t;
    t.header({"distribution", "count", "min", "max", "mean", "p50",
              "p95", "p99"});
    bool any = false;
    for (const char* hname : {"tlb.entry_lifetime", "tlb.reuse_distance"}) {
        auto it = hists.find(hname);
        if (it == hists.end())
            continue;
        summaryRow(t, hname, it->second);
        any = true;
    }
    if (any) {
        os << "TLB entry lifetime / reuse distance (cycles):\n";
        t.print(os);
    }
}

void
StatsReport::printPageCacheTable(std::ostream& os) const
{
    os << "Page-cache frame-lifetime breakdown (frames evicted with "
          "zero demand hits):\n";
    deadEntryTable(os, *this, "pagecache");
    TextTable t;
    t.header({"distribution", "count", "min", "max", "mean", "p50",
              "p95", "p99"});
    bool any = false;
    for (const char* hname :
         {"pagecache.life.lifetime", "pagecache.life.fill_to_first_hit",
          "pagecache.life.demand_hits"}) {
        auto it = hists.find(hname);
        if (it == hists.end())
            continue;
        summaryRow(t, hname, it->second);
        any = true;
    }
    if (any) {
        os << "Frame lifetime (cycles) and demand hits per residency:\n";
        t.print(os);
    }
}

void
StatsReport::printContigTable(std::ostream& os) const
{
    os << "Resident contiguity (pages: "
       << TextTable::num(lookupOr(scalars, "contig.resident_pages"), 0)
       << ", runs: "
       << TextTable::num(lookupOr(scalars, "contig.resident_runs"), 0)
       << ", longest now: "
       << TextTable::num(lookupOr(scalars, "contig.max_resident_run"), 0)
       << ", longest ever: "
       << TextTable::num(lookupOr(scalars, "contig.max_run"), 0) << ")\n";
    TextTable t;
    t.header({"file", "runs", "min", "max", "mean", "p50", "p95",
              "p99"});
    bool any = false;
    for (const auto& [name, h] : hists) {
        if (!startsWith(name, "contig.") ||
            name.size() < sizeof("contig.runs") - 1 ||
            name.compare(name.size() - 5, 5, ".runs") != 0)
            continue;
        // Label "contig.<group>.runs" rows by their group; the
        // aggregate "contig.runs" histogram prints as "all".
        std::string label = "all";
        if (name != "contig.runs")
            label = name.substr(sizeof("contig.") - 1,
                                name.size() - (sizeof("contig.") - 1) - 5);
        summaryRow(t, label, h);
        any = true;
    }
    if (any)
        t.print(os);
}

void
StatsReport::printTenantTable(std::ostream& os) const
{
    // Collect tenant ids from "tenant.t<id>." counter names.
    std::vector<std::string> ids;
    for (const auto& [name, v] : counters) {
        (void)v;
        if (!startsWith(name, "tenant.t"))
            continue;
        size_t dot = name.find('.', sizeof("tenant.t") - 1);
        if (dot == std::string::npos)
            continue;
        std::string id = name.substr(sizeof("tenant.t") - 1,
                                     dot - sizeof("tenant.t") + 1);
        if (id.empty() ||
            id.find_first_not_of("0123456789") != std::string::npos)
            continue;
        if (std::find(ids.begin(), ids.end(), id) == ids.end())
            ids.push_back(id);
    }
    if (ids.empty())
        return;
    std::sort(ids.begin(), ids.end(), [](const std::string& a,
                                         const std::string& b) {
        return a.size() != b.size() ? a.size() < b.size() : a < b;
    });
    os << "Per-tenant faults:\n";
    TextTable t;
    t.header({"tenant", "minor", "major", "faults", "lat_mean",
              "lat_p50", "lat_p95"});
    for (const std::string& id : ids) {
        std::string pfx = "tenant.t" + id + ".";
        double minor = lookupOr(counters, pfx + "minor_faults");
        double major = lookupOr(counters, pfx + "major_faults");
        auto h = hists.find(pfx + "fault_cycles");
        bool have_h = h != hists.end();
        t.row({"t" + id, TextTable::num(minor, 0),
               TextTable::num(major, 0),
               TextTable::num(have_h ? h->second.count : minor + major, 0),
               have_h ? TextTable::num(h->second.mean) : "-",
               have_h ? TextTable::num(h->second.p50) : "-",
               have_h ? TextTable::num(h->second.p95) : "-"});
    }
    t.print(os);
}

void
StatsReport::print(std::ostream& os) const
{
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << "\n";
        first = false;
    };
    if (hasTlb()) {
        sep();
        printTlbTable(os);
    }
    if (hasPageCache()) {
        sep();
        printPageCacheTable(os);
    }
    if (hasContig()) {
        sep();
        printContigTable(os);
    }
    if (hasTenants()) {
        sep();
        printTenantTable(os);
    }
    if (first)
        os << "no translation telemetry in stats dump\n";
}

} // namespace ap::apstat
