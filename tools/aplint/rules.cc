#include "rules.hh"

#include <algorithm>
#include <cctype>

namespace ap::lint {

namespace {

std::string
lower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
annotatedGlobally(const std::set<std::string>& set, const Func& f)
{
    return set.count(f.name) > 0;
}

/**
 * Resolve a call receiver to a registered lock class. Looks through
 * AP_LOCK_LEVEL member/accessor names and per-function reference
 * aliases of the form `auto& lk = <...registered name...>;`.
 */
std::string
resolveLockClass(const std::string& receiver, const GlobalModel& g,
                 const std::map<std::string, std::string>& aliases)
{
    auto it = g.lockNames.find(receiver);
    if (it != g.lockNames.end())
        return it->second;
    auto at = aliases.find(receiver);
    if (at != aliases.end())
        return at->second;
    return "";
}

/**
 * The string literals of @p m's `name[] = {...}` initializer, one row
 * per element: a flat table gives one-string rows, a table of pairs
 * two-string rows. Empty if @p m defines no such table.
 */
std::vector<std::vector<std::string>>
tableRows(const FileModel& m, const std::string& name)
{
    const std::vector<Token>& toks = m.lx.tokens;
    std::vector<std::vector<std::string>> rows;
    for (size_t i = 0; i + 4 < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident || toks[i].text != name ||
            toks[i + 1].text != "[" || toks[i + 2].text != "]" ||
            toks[i + 3].text != "=" || toks[i + 4].text != "{")
            continue;
        int depth = 0;
        for (size_t j = i + 4; j < toks.size(); ++j) {
            const Token& t = toks[j];
            if (t.text == "{") {
                if (++depth == 2)
                    rows.emplace_back();
            } else if (t.text == "}") {
                if (--depth == 0)
                    break;
            } else if (t.kind == Tok::String && t.text.size() >= 2) {
                if (depth == 1)
                    rows.emplace_back();
                rows.back().push_back(t.text.substr(1, t.text.size() - 2));
            }
        }
        break;
    }
    return rows;
}

} // namespace

/**
 * Is this condition identifier lane-dependent? Matches the lane index
 * itself and leader variables, but deliberately not plural masks
 * ("lanes", "activeMask"): a ballot mask is warp-uniform, so looping
 * on it is lockstep-safe.
 */
bool
laneIsh(const std::string& ident)
{
    std::string l = lower(ident);
    return l == "lane" || l == "leader" || l == "lid" ||
           l.find("laneid") != std::string::npos;
}

/** Find `auto& lk = ... <registered>() ...;` aliases in a body. */
std::map<std::string, std::string>
collectAliases(const FileModel& m, const Func& f, const GlobalModel& g)
{
    std::map<std::string, std::string> aliases;
    const auto& toks = m.lx.tokens;
    for (size_t i = f.bodyBegin + 2;
         i + 1 < f.bodyEnd && i + 1 < toks.size(); ++i) {
        if (toks[i].text != "=" || toks[i - 1].kind != Tok::Ident ||
            toks[i - 2].text != "&")
            continue;
        for (size_t j = i + 1; j < f.bodyEnd && toks[j].text != ";";
             ++j) {
            auto it = g.lockNames.find(toks[j].text);
            if (it != g.lockNames.end()) {
                aliases[toks[i - 1].text] = it->second;
                break;
            }
        }
    }
    return aliases;
}

/** Pair up acquire/release call sites into held regions. */
std::vector<HeldRegion>
computeHeldRegions(const Func& f, const GlobalModel& g,
                   const std::map<std::string, std::string>& aliases)
{
    std::vector<HeldRegion> regions;
    for (const Call& c : f.calls) {
        if (c.callee == "acquire") {
            std::string cls = resolveLockClass(c.receiver, g, aliases);
            if (!cls.empty())
                regions.push_back({cls, c.tokIndex, SIZE_MAX, c.line});
        } else if (c.callee == "release") {
            std::string cls = resolveLockClass(c.receiver, g, aliases);
            if (cls.empty())
                continue;
            for (auto it = regions.rbegin(); it != regions.rend();
                 ++it) {
                if (it->lockClass == cls && it->endTok == SIZE_MAX) {
                    it->endTok = c.tokIndex;
                    break;
                }
            }
        }
    }
    return regions;
}

bool
inRegion(const HeldRegion& r, size_t tok)
{
    return tok > r.beginTok && tok < r.endTok;
}

size_t
chainStart(const std::vector<Token>& toks, size_t i)
{
    while (i >= 2) {
        const std::string& sep = toks[i - 1].text;
        if (sep != "." && sep != "->" && sep != "::")
            break;
        size_t j = i - 2;
        if (toks[j].text == ")" || toks[j].text == "]") {
            const std::string close = toks[j].text;
            const std::string open = close == ")" ? "(" : "[";
            int depth = 0;
            while (j > 0) {
                if (toks[j].text == close)
                    ++depth;
                else if (toks[j].text == open && --depth == 0)
                    break;
                --j;
            }
            if (j == 0)
                break;
            --j; // the ident before the group, if any
        }
        if (toks[j].kind != Tok::Ident)
            break;
        i = j;
    }
    return i;
}

void
emit(std::vector<Finding>& out, const FileModel& m, int line,
     const char* rule, std::string msg)
{
    out.push_back({m.path, line, rule, std::move(msg), false});
}

namespace {

// ---- individual rules --------------------------------------------------

void
ruleLeaderOnly(const FileModel& m, const Func& f, const GlobalModel& g,
               std::vector<Finding>& out)
{
    if (annotatedGlobally(g.leaderOnly, f) ||
        annotatedGlobally(g.electsLeader, f))
        return;
    for (const Call& c : f.calls) {
        if (!g.leaderOnly.count(c.callee) || c.callee == f.name)
            continue;
        // Leader election evidence: a ballot and an ffs-style scan
        // earlier in the same body (paper Listing 1's idiom).
        bool sawBallot = false, sawFfs = false;
        for (const Call& prior : f.calls) {
            if (prior.tokIndex >= c.tokIndex)
                break;
            if (prior.callee == "ballot")
                sawBallot = true;
            if (lower(prior.callee).find("ffs") != std::string::npos)
                sawFfs = true;
        }
        if (sawBallot && sawFfs)
            continue;
        emit(out, m, c.line, "leader-only",
             "'" + c.callee + "' is AP_LEADER_ONLY but '" + f.name +
                 "' neither elects a leader (ballot+ffs) nor is "
                 "marked AP_LEADER_ONLY/AP_ELECTS_LEADER");
    }
}

void
ruleLockstepDivergence(const FileModel& m, const Func& f,
                       const GlobalModel& g, std::vector<Finding>& out)
{
    for (const Call& c : f.calls) {
        if (!g.lockstep.count(c.callee) || c.callee == f.name)
            continue;
        for (int s = c.scope; s >= 0; s = f.scopes[s].parent) {
            const ScopeNode& sc = f.scopes[s];
            if (sc.kind != ScopeKind::If && sc.kind != ScopeKind::Loop &&
                sc.kind != ScopeKind::Else)
                continue;
            const ScopeNode& condScope =
                sc.kind == ScopeKind::Else && sc.parent >= 0
                    ? f.scopes[s] // else has no cond of its own; skip
                    : sc;
            bool divergent = false;
            for (const std::string& id : condScope.condIdents) {
                if (laneIsh(id)) {
                    divergent = true;
                    break;
                }
            }
            if (divergent) {
                emit(out, m, c.line, "lockstep-divergence",
                     "'" + c.callee +
                         "' is AP_LOCKSTEP but is called under a "
                         "lane-divergent guard (line " +
                         std::to_string(sc.line) + ")");
                break;
            }
        }
    }
}

void
ruleNoYield(const FileModel& m, const Func& f, const GlobalModel& g,
            const std::vector<HeldRegion>& regions,
            std::vector<Finding>& out)
{
    bool noYieldFn = annotatedGlobally(g.noYield, f);
    for (const Call& c : f.calls) {
        if (!g.yields.count(c.callee) || c.callee == f.name)
            continue;
        if (noYieldFn) {
            emit(out, m, c.line, "no-yield",
                 "'" + c.callee + "' may yield the fiber but '" +
                     f.name + "' is AP_NO_YIELD");
            continue;
        }
        // Lock handoff itself (acquire/release of a later class) is
        // governed by the lock-order rule, not this one.
        if (c.callee == "acquire" || c.callee == "release" ||
            c.callee == "tryAcquire")
            continue;
        for (const HeldRegion& r : regions) {
            if (inRegion(r, c.tokIndex)) {
                emit(out, m, c.line, "no-yield",
                     "'" + c.callee +
                         "' may yield the fiber while lock class '" +
                         r.lockClass + "' (acquired line " +
                         std::to_string(r.line) + ") is held");
                break;
            }
        }
    }
}

void
ruleLockOrder(const FileModel& m, const Func& f, const GlobalModel& g,
              const std::map<std::string, std::string>& aliases,
              const std::vector<HeldRegion>& regions,
              std::vector<Finding>& out)
{
    auto declares = [&](const std::string& cls) {
        auto it = g.acquires.find(f.name);
        return it != g.acquires.end() && it->second.count(cls) > 0;
    };
    auto rank = [&](const std::string& cls) {
        auto it = g.lockRank.find(cls);
        return it == g.lockRank.end() ? -1 : it->second;
    };
    for (const Call& c : f.calls) {
        if (c.callee == "acquire") {
            std::string cls = resolveLockClass(c.receiver, g, aliases);
            if (cls.empty())
                continue;
            if (!declares(cls)) {
                emit(out, m, c.line, "lock-order",
                     "'" + f.name + "' acquires lock class '" + cls +
                         "' without declaring AP_ACQUIRES(\"" + cls +
                         "\")");
            }
            for (const HeldRegion& r : regions) {
                if (r.lockClass == cls || !inRegion(r, c.tokIndex))
                    continue;
                if (rank(r.lockClass) >= 0 && rank(cls) >= 0 &&
                    rank(r.lockClass) >= rank(cls)) {
                    emit(out, m, c.line, "lock-order",
                         "acquiring '" + cls + "' while holding '" +
                             r.lockClass +
                             "' violates the declared order");
                }
            }
            continue;
        }
        // Interprocedural: calling something that acquires class D
        // while holding class C needs C < D in the declared order.
        auto it = g.acquires.find(c.callee);
        if (it == g.acquires.end() || c.callee == f.name)
            continue;
        for (const HeldRegion& r : regions) {
            if (!inRegion(r, c.tokIndex))
                continue;
            for (const std::string& d : it->second) {
                if (d == r.lockClass)
                    continue;
                if (rank(r.lockClass) >= 0 && rank(d) >= 0 &&
                    rank(r.lockClass) >= rank(d)) {
                    emit(out, m, c.line, "lock-order",
                         "'" + c.callee + "' may acquire '" + d +
                             "' while '" + r.lockClass +
                             "' is held, violating the declared "
                             "order");
                }
            }
        }
    }
}

void
ruleLinkedEscape(const FileModel& m, const Func& f, const GlobalModel& g,
                 std::vector<Finding>& out)
{
    const auto& toks = m.lx.tokens;
    for (const Call& c : f.calls) {
        if (!g.requiresLinked.count(c.callee) || c.callee == f.name)
            continue;
        size_t s = chainStart(toks, c.tokIndex);
        if (s == 0)
            continue;
        const Token& before = toks[s - 1];
        if (before.text == "return" &&
            !annotatedGlobally(g.requiresLinked, f)) {
            emit(out, m, c.line, "linked-escape",
                 "returning the AP_REQUIRES_LINKED pointer from '" +
                     c.callee + "' lets it outlive the linking scope");
            continue;
        }
        if (before.text == "=" && s >= 3 &&
            toks[s - 2].kind == Tok::Ident &&
            (toks[s - 3].text == "." || toks[s - 3].text == "->")) {
            emit(out, m, c.line, "linked-escape",
                 "storing the AP_REQUIRES_LINKED pointer from '" +
                     c.callee +
                     "' into object state lets it outlive the "
                     "linking scope");
        }
    }
}

void
ruleAssertSideEffect(const FileModel& m, const Func& f,
                     std::vector<Finding>& out)
{
    static const std::set<std::string> kMutators = {
        "++", "--", "=",  "+=", "-=",  "*=",  "/=",
        "%=", "&=", "|=", "^=", "<<=", ">>=",
    };
    const auto& toks = m.lx.tokens;
    for (const Call& c : f.calls) {
        if (c.callee != "AP_ASSERT" && c.callee != "AP_CHECK")
            continue;
        size_t i = c.tokIndex + 1; // at '('
        if (i >= toks.size() || toks[i].text != "(")
            continue;
        int depth = 1;
        for (++i; i < toks.size() && depth > 0; ++i) {
            const std::string& t = toks[i].text;
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}") {
                --depth;
            } else if (t == "," && depth == 1) {
                break; // end of the condition argument
            } else if (depth >= 1 && toks[i].kind == Tok::Punct &&
                       kMutators.count(t)) {
                emit(out, m, c.line, "assert-side-effect",
                     c.callee + " condition contains '" + t +
                         "'; assertion arguments must be "
                         "side-effect free");
                break;
            }
        }
    }
}

void
ruleWaiverSyntax(const FileModel& m, std::vector<Finding>& out)
{
    for (const Waiver& w : m.waivers) {
        if (w.malformed) {
            emit(out, m, w.line, "waiver-syntax",
                 "waiver needs both a rule and a reason: "
                 "// aplint: allow(<rule>) <reason>");
        } else if (!knownRules().count(w.rule)) {
            emit(out, m, w.line, "waiver-syntax",
                 "waiver names unknown rule '" + w.rule + "'");
        }
    }
}

} // namespace

const std::set<std::string>&
knownRules()
{
    static const std::set<std::string> kRules = {
        "leader-only",   "lockstep-divergence", "no-yield",
        "lock-order",    "linked-escape",       "assert-side-effect",
        "waiver-syntax", "must-check-status",   "linked-escape-v2",
        "contract-propagation", "unused-waiver", "ref-balance",
        "state-edge",    "transition-decl",
    };
    return kRules;
}

GlobalModel
buildGlobal(const std::vector<FileModel>& files)
{
    GlobalModel g;
    for (const FileModel& m : files) {
        for (const Func& f : m.funcs) {
            for (const Annotation& a : f.anns) {
                if (a.name == "AP_LOCKSTEP")
                    g.lockstep.insert(f.name);
                else if (a.name == "AP_LEADER_ONLY")
                    g.leaderOnly.insert(f.name);
                else if (a.name == "AP_ELECTS_LEADER")
                    g.electsLeader.insert(f.name);
                else if (a.name == "AP_REQUIRES_LINKED") {
                    g.requiresLinked.insert(f.name);
                    g.returnsLinked.insert(f.name);
                } else if (a.name == "AP_RETURNS_LINKED")
                    g.returnsLinked.insert(f.name);
                else if (a.name == "AP_MUST_CHECK")
                    g.mustCheck.insert(f.name);
                else if (a.name == "AP_NO_YIELD")
                    g.noYield.insert(f.name);
                else if (a.name == "AP_YIELDS")
                    g.yields.insert(f.name);
                else if (a.name == "AP_ACQUIRES")
                    g.acquires[f.name].insert(a.arg);
                else if (a.name == "AP_ACQUIRES_REF")
                    g.acquiresRef[f.name] = a.arg;
                else if (a.name == "AP_RELEASES_REF")
                    g.releasesRef[f.name] = a.arg;
                else if (a.name == "AP_BALANCED")
                    g.balanced.insert(f.name);
                else if (a.name == "AP_TRANSITIONS")
                    for (const std::string& e : a.args)
                        g.transitions[f.name].insert(e);
            }
        }
        for (const LockDecl& l : m.locks)
            g.lockNames[l.name] = l.lockClass;
        if (g.lockRank.empty())
            for (const auto& row : tableRows(m, "kLockOrder"))
                g.lockRank.emplace(row[0], g.lockRank.size());
        if (g.pteEdges.empty())
            for (const auto& row : tableRows(m, "kPteStateMachine"))
                if (row.size() == 2)
                    g.pteEdges.insert(row[0] + "->" + row[1]);
    }
    return g;
}

void
runRules(const FileModel& m, const GlobalModel& g,
         std::vector<Finding>& findings)
{
    for (const Func& f : m.funcs) {
        if (!f.hasBody)
            continue;
        auto aliases = collectAliases(m, f, g);
        auto regions = computeHeldRegions(f, g, aliases);
        ruleLeaderOnly(m, f, g, findings);
        ruleLockstepDivergence(m, f, g, findings);
        ruleNoYield(m, f, g, regions, findings);
        ruleLockOrder(m, f, g, aliases, regions, findings);
        ruleLinkedEscape(m, f, g, findings);
        ruleAssertSideEffect(m, f, findings);
    }
    if (!g.lockRank.empty())
        for (const LockDecl& l : m.locks)
            if (!g.lockRank.count(l.lockClass))
                emit(findings, m, l.line, "lock-order",
                     "lock class '" + l.lockClass +
                         "' is not ranked in kLockOrder");
    ruleWaiverSyntax(m, findings);
}

} // namespace ap::lint
