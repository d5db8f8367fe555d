#include "rules.hh"

#include "callgraph.hh"

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

/**
 * The innermost scope around @p s whose condition is lane-dependent
 * (an `if`, its `else`, or a loop), or null if the call is uniform.
 */
const ScopeNode*
divergentGuard(const Func& f, int s)
{
    for (; s >= 0; s = f.scopes[s].parent)
        for (const std::string& id : f.scopes[s].condIdents)
            if (laneIsh(id))
                return &f.scopes[s];
    return nullptr;
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

/** A [acquire, release) span of a registered lock class, token order. */
struct HeldRegion
{
    std::string lockClass;
    size_t beginTok; ///< token index of the acquire callee
    size_t endTok;   ///< token index of the release, or SIZE_MAX
    int line;

    /** Is the token strictly inside the span? */
    bool holds(size_t tok) const { return tok > beginTok && tok < endTok; }
};

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

/**
 * " by inference (callee -> ... -> leaf)" when @p witness explains
 * @p callee's contract, which is then inferred; "" for a declared one.
 */
std::string
inferred(const std::string& callee,
         const std::map<std::string, std::string>& witness)
{
    if (!witness.count(callee))
        return "";
    return " by inference (" + chainVia(callee, witness) + ")";
}

} // namespace

bool
electsBefore(const Func& f, size_t tok)
{
    bool ballot = false, ffs = false;
    for (const Call& c : f.calls) {
        if (c.tokIndex >= tok)
            break;
        ballot = ballot || c.callee == "ballot";
        ffs = ffs || c.callee == "ffs" || c.callee == "ffs32" ||
              c.callee == "__ffs";
    }
    return ballot && ffs;
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

/**
 * The four call contracts, checked once per call site against @p s,
 * which holds declared and inferred contracts alike. Who the caller
 * is (leader context, AP_NO_YIELD, its AP_ACQUIRES) is always read
 * from its declarations.
 */
void
ruleCallContracts(const FileModel& m, const Func& f, const GlobalModel& g,
                  const Summaries& s, std::vector<Finding>& out)
{
    const auto aliases = collectAliases(m, f, g);
    const auto regions = computeHeldRegions(f, g, aliases);
    const bool leaderCtx =
        g.leaderOnly.count(f.name) || g.electsLeader.count(f.name);
    const bool noYieldFn = g.noYield.count(f.name) > 0;
    auto declares = [&](const std::string& cls) {
        auto it = g.acquires.find(f.name);
        return it != g.acquires.end() && it->second.count(cls) > 0;
    };
    // Taking class `d` while `held` is held needs held < d.
    auto misordered = [&](const std::string& held, const std::string& d) {
        auto h = g.lockRank.find(held), n = g.lockRank.find(d);
        return held != d && h != g.lockRank.end() &&
               n != g.lockRank.end() && h->second >= n->second;
    };

    for (const Call& c : f.calls) {
        if (c.callee == f.name)
            continue;

        // Leader election evidence: paper Listing 1's ballot and ffs
        // earlier in the same body.
        if (s.leaderOnly.count(c.callee) && !leaderCtx &&
            !electsBefore(f, c.tokIndex)) {
            emit(out, m, c.line, "leader-only",
                 "'" + c.callee + "' is AP_LEADER_ONLY" +
                     inferred(c.callee, s.leaderOnlyWitness) + " but '" +
                     f.name +
                     "' neither elects a leader (ballot+ffs) nor is "
                     "marked AP_LEADER_ONLY/AP_ELECTS_LEADER");
        }

        if (s.lockstep.count(c.callee)) {
            if (const ScopeNode* guard = divergentGuard(f, c.scope))
                emit(out, m, c.line, "lockstep-divergence",
                     "'" + c.callee + "' is AP_LOCKSTEP" +
                         inferred(c.callee, s.lockstepWitness) +
                         " but is called under a lane-divergent guard "
                         "(line " +
                         std::to_string(guard->line) + ")");
        }

        if (s.yields.count(c.callee)) {
            const std::string yields =
                "'" + c.callee + "' may yield the fiber" +
                inferred(c.callee, s.yieldsWitness);
            // Lock handoff itself (acquire/release of a later class)
            // is governed by lock-order, not by the held-lock check.
            const bool lockOp = c.callee == "acquire" ||
                                c.callee == "release" ||
                                c.callee == "tryAcquire";
            if (noYieldFn) {
                emit(out, m, c.line, "no-yield",
                     yields + " but '" + f.name + "' is AP_NO_YIELD");
            } else if (!lockOp) {
                for (const HeldRegion& r : regions) {
                    if (!r.holds(c.tokIndex))
                        continue;
                    emit(out, m, c.line, "no-yield",
                         yields + " while lock class '" + r.lockClass +
                             "' (acquired line " +
                             std::to_string(r.line) + ") is held");
                    break;
                }
            }
        }

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
                if (r.holds(c.tokIndex) && misordered(r.lockClass, cls))
                    emit(out, m, c.line, "lock-order",
                         "acquiring '" + cls + "' while holding '" +
                             r.lockClass +
                             "' violates the declared order");
            }
            continue;
        }
        // Calling something that may acquire class D while holding
        // class C needs C < D in the declared order.
        auto acq = s.acquires.find(c.callee);
        if (acq == s.acquires.end())
            continue;
        for (const HeldRegion& r : regions) {
            if (!r.holds(c.tokIndex))
                continue;
            for (const std::string& d : acq->second) {
                if (!misordered(r.lockClass, d))
                    continue;
                auto w = s.acquiresWitness.find(d);
                emit(out, m, c.line, "lock-order",
                     "'" + c.callee + "' may acquire '" + d + "'" +
                         (w == s.acquiresWitness.end()
                              ? ""
                              : inferred(c.callee, w->second)) +
                         " while '" + r.lockClass +
                         "' is held, violating the declared order");
            }
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
        "waiver-syntax", "must-check-status",   "unused-waiver",
        "ref-balance",   "state-edge",          "transition-decl",
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
                else if (a.name == "AP_REQUIRES_LINKED" ||
                         a.name == "AP_RETURNS_LINKED")
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
runRules(const FileModel& m, const GlobalModel& g, const Summaries& sums,
         std::vector<Finding>& findings)
{
    for (const Func& f : m.funcs) {
        if (!f.hasBody)
            continue;
        ruleCallContracts(m, f, g, sums, findings);
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
