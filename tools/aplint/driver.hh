/**
 * @file
 * aplint driver: walks the tree, parses every C++ source, builds the
 * cross-file registries, runs the rules, and applies waivers. Used by
 * both the CLI (main.cc) and the test suite.
 */

#ifndef APLINT_DRIVER_HH
#define APLINT_DRIVER_HH

#include "rules.hh"

#include <string>
#include <utility>
#include <vector>

namespace ap::lint {

struct Options
{
    std::string root = ".";
    /** Files or directories, relative to root (or absolute). */
    std::vector<std::string> paths = {"src", "tests", "bench",
                                      "examples", "tools"};
    /** Path substrings to skip (e.g. fixture directories). */
    std::vector<std::string> excludes;
    /** Promote unused-waiver notes to gating findings. */
    bool strictWaivers = false;
    /** Baseline file of tolerated findings ("" = none). */
    std::string baselinePath;
    /** Collect per-file parse/analysis timings (see toStats). */
    bool stats = false;
};

struct Report
{
    std::vector<Finding> findings; ///< waived ones have waived=true
    int filesScanned = 0;
    /** Files served from the process-wide parse cache this run. */
    int cacheHits = 0;
    /** Wall-clock for the whole analyze() call, milliseconds. */
    double totalMillis = 0.0;
    /** Per-file analysis wall-clock (path, ms); only under stats. */
    std::vector<std::pair<std::string, double>> fileMillis;

    /** Gating findings: not waived, not baselined, not advisory. */
    int unwaivedCount() const
    {
        int n = 0;
        for (const auto& f : findings)
            n += (f.waived || f.note || f.baselined) ? 0 : 1;
        return n;
    }
    int noteCount() const
    {
        int n = 0;
        for (const auto& f : findings)
            n += f.note ? 1 : 0;
        return n;
    }
    int baselinedCount() const
    {
        int n = 0;
        for (const auto& f : findings)
            n += f.baselined ? 1 : 0;
        return n;
    }
};

/** Run the full analysis. */
Report analyze(const Options& opts);

/** Render a report, one `file:line: [rule] message` per finding. */
std::string toText(const Report& r);

/** Render a report as a JSON object for CI consumption. */
std::string toJson(const Report& r);

/** Render the unwaived findings in baseline format (see toJson). */
std::string toBaseline(const Report& r);

/**
 * Render a report as SARIF 2.1.0 (one run, tool "aplint") for code
 * scanning UIs. Waived and baselined findings are omitted; notes map
 * to level "note", everything else to "error".
 */
std::string toSarif(const Report& r);

/** Render the timing/cache counters collected under Options::stats. */
std::string toStats(const Report& r);

} // namespace ap::lint

#endif // APLINT_DRIVER_HH
