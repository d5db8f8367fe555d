/**
 * @file
 * aplint CLI. Exit status is 0 only when the tree has zero unwaived
 * (and non-baselined) findings, so CI can gate on it directly.
 *
 *   aplint [--root DIR] [--json | --sarif] [--exclude SUBSTR]...
 *          [--baseline FILE] [--emit-baseline] [--strict-waivers]
 *          [--stats] [path...]
 */

#include "driver.hh"

#include <cstdio>
#include <cstring>
#include <string>

int
main(int argc, char** argv)
{
    ap::lint::Options opts;
    bool json = false;
    bool sarif = false;
    bool emitBaseline = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--sarif") {
            sarif = true;
        } else if (arg == "--stats") {
            opts.stats = true;
        } else if (arg == "--root" && i + 1 < argc) {
            opts.root = argv[++i];
        } else if (arg == "--exclude" && i + 1 < argc) {
            opts.excludes.push_back(argv[++i]);
        } else if (arg == "--baseline" && i + 1 < argc) {
            opts.baselinePath = argv[++i];
        } else if (arg == "--emit-baseline") {
            emitBaseline = true;
        } else if (arg == "--strict-waivers") {
            opts.strictWaivers = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: aplint [--root DIR] [--json | --sarif] "
                "[--exclude SUBSTR]... [--baseline FILE] "
                "[--emit-baseline] [--strict-waivers] [--stats] "
                "[path...]\n"
                "Lints the ActivePointers tree against the AP_* "
                "contract annotations.\n"
                "Default paths (relative to --root): src tests bench "
                "examples tools\n"
                "  --baseline FILE   tolerate findings listed in FILE; "
                "only new ones gate\n"
                "  --emit-baseline   print current unwaived findings "
                "in baseline format\n"
                "  --sarif           emit SARIF 2.1.0 instead of text "
                "(for code-scanning UIs)\n"
                "  --stats           append per-file timing and "
                "parse-cache counters\n"
                "  --strict-waivers  stale (unused) waivers become "
                "errors, not notes\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "aplint: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (!paths.empty())
        opts.paths = paths;

    ap::lint::Report report = ap::lint::analyze(opts);
    if (emitBaseline) {
        std::fputs(ap::lint::toBaseline(report).c_str(), stdout);
        return 0;
    }
    std::string out = sarif ? ap::lint::toSarif(report)
                     : json ? ap::lint::toJson(report)
                            : ap::lint::toText(report);
    std::fputs(out.c_str(), stdout);
    if (opts.stats && !sarif)
        std::fputs(ap::lint::toStats(report).c_str(), stdout);
    return report.unwaivedCount() == 0 ? 0 : 1;
}
