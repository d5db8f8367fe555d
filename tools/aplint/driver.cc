#include "driver.hh"

#include "callgraph.hh"
#include "dataflow.hh"
#include "typestate.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace fs = std::filesystem;

namespace ap::lint {

namespace {

bool
isSourceFile(const fs::path& p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

bool
excluded(const std::string& rel, const Options& opts)
{
    for (const std::string& e : opts.excludes)
        if (rel.find(e) != std::string::npos)
            return true;
    return false;
}

std::string
relativeTo(const fs::path& p, const fs::path& root)
{
    std::error_code ec;
    fs::path rel = fs::relative(p, root, ec);
    std::string s = (ec || rel.empty() ? p : rel).generic_string();
    return s;
}

std::vector<std::string>
collectFiles(const Options& opts)
{
    std::vector<std::string> files;
    const fs::path root = opts.root;
    for (const std::string& p : opts.paths) {
        fs::path full = fs::path(p).is_absolute() ? fs::path(p)
                                                  : root / p;
        std::error_code ec;
        if (fs::is_regular_file(full, ec)) {
            files.push_back(full.generic_string());
            continue;
        }
        if (!fs::is_directory(full, ec))
            continue;
        for (fs::recursive_directory_iterator
                 it(full, fs::directory_options::skip_permission_denied,
                    ec),
             end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (it->is_regular_file(ec) && isSourceFile(it->path()))
                files.push_back(it->path().generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Mark findings covered by a (well-formed) waiver in their file, and
 * record which waivers actually matched something so stale ones can be
 * reported (the unused-waiver diagnostic).
 */
void
applyWaivers(std::vector<Finding>& findings,
             const std::map<std::string, const FileModel*>& byPath,
             std::map<const Waiver*, bool>& used)
{
    for (Finding& f : findings) {
        if (f.rule == "waiver-syntax" || f.rule == "unused-waiver")
            continue; // never waivable
        auto it = byPath.find(f.file);
        if (it == byPath.end())
            continue;
        for (const Waiver& w : it->second->waivers) {
            if (w.malformed || w.rule != f.rule)
                continue;
            if (w.fileScope || w.line == f.line ||
                w.line == f.line - 1) {
                f.waived = true;
                used[&w] = true;
                break;
            }
        }
    }
}

/**
 * Minimal reader for the committed baseline: any JSON-ish file listing
 * objects with "file", "line", and "rule" keys. Kept hand-rolled so
 * aplint stays dependency-free; unknown keys are ignored and malformed
 * entries are skipped.
 */
std::set<std::tuple<std::string, int, std::string>>
loadBaseline(const std::string& path)
{
    std::set<std::tuple<std::string, int, std::string>> entries;
    std::string text = readFile(path);

    auto stringAfter = [&](size_t from, size_t bound,
                           const std::string& key) -> std::string {
        size_t k = text.find("\"" + key + "\"", from);
        if (k == std::string::npos || k >= bound)
            return "";
        size_t q1 = text.find('"', k + key.size() + 2);
        if (q1 == std::string::npos || q1 >= bound)
            return "";
        size_t q2 = text.find('"', q1 + 1);
        if (q2 == std::string::npos || q2 >= bound)
            return "";
        return text.substr(q1 + 1, q2 - q1 - 1);
    };
    auto intAfter = [&](size_t from, size_t bound,
                        const std::string& key) -> int {
        size_t k = text.find("\"" + key + "\"", from);
        if (k == std::string::npos || k >= bound)
            return -1;
        size_t i = k + key.size() + 2;
        while (i < bound && !std::isdigit(static_cast<unsigned char>(
                                text[i])))
            ++i;
        int v = 0;
        bool any = false;
        while (i < bound &&
               std::isdigit(static_cast<unsigned char>(text[i]))) {
            v = v * 10 + (text[i++] - '0');
            any = true;
        }
        return any ? v : -1;
    };

    size_t pos = text.find('[');
    if (pos == std::string::npos)
        return entries;
    while (true) {
        size_t open = text.find('{', pos);
        if (open == std::string::npos)
            break;
        size_t close = text.find('}', open);
        if (close == std::string::npos)
            break;
        std::string file = stringAfter(open, close, "file");
        std::string rule = stringAfter(open, close, "rule");
        int line = intAfter(open, close, "line");
        if (!file.empty() && !rule.empty() && line >= 0)
            entries.insert({file, line, rule});
        pos = close + 1;
    }
    return entries;
}

/**
 * Process-wide parse cache: repeated analyze() calls in one process
 * (the unit-test suite runs dozens) re-tokenize only files whose
 * content changed. Keyed by on-disk path; the cached model is copied
 * out with its relative path patched, since findings carry m.path.
 */
struct CacheEntry
{
    std::string content;
    FileModel model;
};
std::map<std::string, CacheEntry>&
parseCache()
{
    static std::map<std::string, CacheEntry> cache;
    return cache;
}

FileModel
parseCached(const std::string& path, const std::string& rel,
            Report& report)
{
    std::string content = readFile(path);
    auto& cache = parseCache();
    auto it = cache.find(path);
    if (it != cache.end() && it->second.content == content) {
        ++report.cacheHits;
        FileModel copy = it->second.model;
        copy.path = rel;
        return copy;
    }
    FileModel m = parseFile(rel, content);
    cache[path] = {std::move(content), m};
    return m;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

Report
analyze(const Options& opts)
{
    Report report;
    const auto t0 = std::chrono::steady_clock::now();
    const fs::path root = opts.root;

    std::vector<FileModel> models;
    for (const std::string& path : collectFiles(opts)) {
        std::string rel = relativeTo(path, root);
        if (excluded(rel, opts))
            continue;
        models.push_back(parseCached(path, rel, report));
        ++report.filesScanned;
    }

    GlobalModel g = buildGlobal(models);
    std::map<std::string, const FileModel*> byPath;
    for (const FileModel& m : models)
        byPath[m.path] = &m;

    CallGraph cg = buildCallGraph(models);
    Summaries sums = propagate(cg, g);
    computeRefSummaries(models, g, cg, sums);
    for (const FileModel& m : models) {
        const auto f0 = std::chrono::steady_clock::now();
        runRules(m, g, report.findings);
        runPropagation(m, g, cg, sums, report.findings);
        runDataflow(m, g, &sums, report.findings);
        runTypestate(m, g, &sums, report.findings);
        if (opts.stats) {
            std::chrono::duration<double, std::milli> d =
                std::chrono::steady_clock::now() - f0;
            report.fileMillis.emplace_back(m.path, d.count());
        }
    }

    std::map<const Waiver*, bool> used;
    applyWaivers(report.findings, byPath, used);

    // Stale suppressions: a well-formed waiver for a known rule that
    // matched nothing. Advisory by default, gating under --strict.
    for (const FileModel& m : models) {
        for (const Waiver& w : m.waivers) {
            if (w.malformed || !knownRules().count(w.rule) ||
                used.count(&w))
                continue;
            Finding f{m.path, w.line, "unused-waiver",
                      "waiver for '" + w.rule +
                          "' no longer matches any finding; remove "
                          "the stale suppression",
                      false};
            f.note = !opts.strictWaivers;
            report.findings.push_back(std::move(f));
        }
    }

    if (!opts.baselinePath.empty()) {
        auto baseline = loadBaseline(opts.baselinePath);
        if (!baseline.empty()) {
            for (Finding& f : report.findings) {
                if (f.waived || f.note)
                    continue;
                if (baseline.count({f.file, f.line, f.rule}))
                    f.baselined = true;
            }
        }
    }

    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const Finding& a, const Finding& b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         return a.line < b.line;
                     });
    std::chrono::duration<double, std::milli> total =
        std::chrono::steady_clock::now() - t0;
    report.totalMillis = total.count();
    return report;
}

std::string
toText(const Report& r)
{
    std::ostringstream os;
    int waived = 0;
    for (const Finding& f : r.findings) {
        if (f.waived) {
            ++waived;
            continue;
        }
        if (f.note) {
            os << "note: " << f.file << ":" << f.line << ": [" << f.rule
               << "] " << f.message << "\n";
            continue;
        }
        if (f.baselined)
            continue;
        os << f.file << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    }
    os << "aplint: " << r.unwaivedCount() << " finding(s), " << waived
       << " waived, " << r.baselinedCount() << " baselined, "
       << r.noteCount() << " note(s), " << r.filesScanned
       << " file(s) scanned\n";
    return os.str();
}

std::string
toJson(const Report& r)
{
    std::ostringstream os;
    os << "{\n  \"filesScanned\": " << r.filesScanned << ",\n";
    os << "  \"unwaived\": " << r.unwaivedCount() << ",\n";
    os << "  \"baselined\": " << r.baselinedCount() << ",\n";
    os << "  \"notes\": " << r.noteCount() << ",\n";
    os << "  \"findings\": [";
    bool first = true;
    for (const Finding& f : r.findings) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"file\": \"" << jsonEscape(f.file)
           << "\", \"line\": " << f.line << ", \"rule\": \""
           << jsonEscape(f.rule) << "\", \"waived\": "
           << (f.waived ? "true" : "false") << ", \"note\": "
           << (f.note ? "true" : "false") << ", \"baselined\": "
           << (f.baselined ? "true" : "false") << ", \"message\": \""
           << jsonEscape(f.message) << "\"}";
    }
    os << (first ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

std::string
toBaseline(const Report& r)
{
    std::ostringstream os;
    os << "{\n  \"findings\": [";
    bool first = true;
    for (const Finding& f : r.findings) {
        if (f.waived || f.note)
            continue;
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"file\": \"" << jsonEscape(f.file)
           << "\", \"line\": " << f.line << ", \"rule\": \""
           << jsonEscape(f.rule) << "\"}";
    }
    os << (first ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

std::string
toSarif(const Report& r)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"version\": \"2.1.0\",\n"
       << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
          "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
       << "  \"runs\": [\n    {\n"
       << "      \"tool\": {\n        \"driver\": {\n"
       << "          \"name\": \"aplint\",\n"
       << "          \"informationUri\": \"docs/ANALYSIS.md\",\n"
       << "          \"rules\": [";
    bool first = true;
    for (const std::string& rule : knownRules()) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "            {\"id\": \"" << jsonEscape(rule) << "\"}";
    }
    os << (first ? "]" : "\n          ]") << "\n        }\n      },\n"
       << "      \"results\": [";
    first = true;
    for (const Finding& f : r.findings) {
        if (f.waived || f.baselined)
            continue;
        os << (first ? "\n" : ",\n");
        first = false;
        os << "        {\"ruleId\": \"" << jsonEscape(f.rule)
           << "\", \"level\": \"" << (f.note ? "note" : "error")
           << "\", \"message\": {\"text\": \"" << jsonEscape(f.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << jsonEscape(f.file)
           << "\"}, \"region\": {\"startLine\": " << f.line
           << "}}}]}";
    }
    os << (first ? "]" : "\n      ]") << "\n    }\n  ]\n}\n";
    return os.str();
}

std::string
toStats(const Report& r)
{
    std::ostringstream os;
    os << "aplint stats: " << r.filesScanned << " file(s), "
       << r.cacheHits << " parse-cache hit(s), "
       << static_cast<long>(r.totalMillis) << " ms total\n";
    // slowest files first, capped so the summary stays readable
    std::vector<std::pair<std::string, double>> rows = r.fileMillis;
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                         return a.second > b.second;
                     });
    size_t n = std::min<size_t>(rows.size(), 15);
    for (size_t i = 0; i < n; ++i)
        os << "  " << rows[i].first << ": "
           << static_cast<long>(rows[i].second * 1000) / 1000.0
           << " ms\n";
    return os.str();
}

} // namespace ap::lint
