#include "callgraph.hh"

#include <algorithm>
#include <cctype>

namespace ap::lint {

namespace {

std::string
lowered(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** ballot + ffs anywhere in the body (paper Listing 1's idiom). */
bool
electionIdiom(const Func& f)
{
    bool ballot = false, ffs = false;
    for (const Call& c : f.calls) {
        if (c.callee == "ballot")
            ballot = true;
        if (lowered(c.callee).find("ffs") != std::string::npos)
            ffs = true;
    }
    return ballot && ffs;
}

/** "callee" or "callee -> rest-of-chain", capped for readability. */
std::string
chainVia(const std::string& callee,
         const std::map<std::string, std::string>& witness)
{
    auto it = witness.find(callee);
    if (it == witness.end() || it->second.empty())
        return callee;
    std::string s = callee + " -> " + it->second;
    if (s.size() > 96)
        s = s.substr(0, 93) + "...";
    return s;
}

/** Lock-handoff calls the no-yield rule family always skips. */
bool
isLockOp(const std::string& callee)
{
    return callee == "acquire" || callee == "release" ||
           callee == "tryAcquire";
}

} // namespace

CallGraph
buildCallGraph(const std::vector<FileModel>& files)
{
    CallGraph cg;
    for (const FileModel& m : files) {
        for (const Func& f : m.funcs) {
            CgNode& n = cg.nodes[f.name];
            n.name = f.name;
            if (!f.hasBody)
                continue;
            n.hasBody = true;
            if (electionIdiom(f))
                n.elects = true;
            for (const Call& c : f.calls) {
                if (c.callee == f.name)
                    continue; // self edges add nothing to summaries
                n.callees.insert(c.callee);
                cg.callers[c.callee].insert(f.name);
            }
        }
    }
    return cg;
}

Summaries
propagate(const CallGraph& cg, const GlobalModel& g)
{
    Summaries s;
    s.yields = g.yields;
    s.lockstep = g.lockstep;
    s.leaderOnly = g.leaderOnly;
    s.acquires = g.acquires;
    s.transitions = g.transitions;

    // Monotone fixpoint: each pass can only add facts over finite
    // name sets, so iteration terminates even with recursion.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto& [name, node] : cg.nodes) {
            if (!node.hasBody)
                continue;
            for (const std::string& callee : node.callees) {
                // Yields: a declared AP_NO_YIELD boundary stops the
                // inference upward — callers trust the declaration,
                // and the body's own violation is diagnosed below.
                if (s.yields.count(callee) && !s.yields.count(name) &&
                    !g.noYield.count(name)) {
                    s.yields.insert(name);
                    s.yieldsWitness[name] =
                        chainVia(callee, s.yieldsWitness);
                    changed = true;
                }
                // Lockstep: calling a whole-warp entry makes the
                // caller a whole-warp entry.
                if (s.lockstep.count(callee) &&
                    !s.lockstep.count(name)) {
                    s.lockstep.insert(name);
                    s.lockstepWitness[name] =
                        chainVia(callee, s.lockstepWitness);
                    changed = true;
                }
                // Leader-only: an election boundary (declared or the
                // ballot+ffs idiom in the body) satisfies the callee's
                // requirement; anything else passes it to callers.
                if (s.leaderOnly.count(callee) &&
                    !s.leaderOnly.count(name) && !node.elects &&
                    !g.electsLeader.count(name)) {
                    s.leaderOnly.insert(name);
                    s.leaderOnlyWitness[name] =
                        chainVia(callee, s.leaderOnlyWitness);
                    changed = true;
                }
                // Acquires and transitions: plain transitive closure.
                for (auto* closure : {&s.acquires, &s.transitions}) {
                    auto it = closure->find(callee);
                    if (it == closure->end())
                        continue;
                    for (const std::string& x : it->second)
                        if ((*closure)[name].insert(x).second)
                            changed = true;
                }
            }
        }
    }
    return s;
}

void
runPropagation(const FileModel& m, const GlobalModel& g,
               const CallGraph& cg, const Summaries& sums,
               std::vector<Finding>& findings)
{
    auto rank = [&](const std::string& cls) {
        auto it = g.lockRank.find(cls);
        return it == g.lockRank.end() ? -1 : it->second;
    };
    // Inferred-but-undeclared: declared annotations stay with the v1
    // rules so no call site is ever reported by both layers.
    auto inferredOnly = [](const std::set<std::string>& inf,
                           const std::set<std::string>& decl,
                           const std::string& n) {
        return inf.count(n) > 0 && decl.count(n) == 0;
    };

    for (const Func& f : m.funcs) {
        if (!f.hasBody)
            continue;
        auto aliases = collectAliases(m, f, g);
        auto regions = computeHeldRegions(f, g, aliases);
        auto nodeIt = cg.nodes.find(f.name);
        bool elects = g.electsLeader.count(f.name) > 0 ||
                      (nodeIt != cg.nodes.end() && nodeIt->second.elects);
        bool noYieldFn = g.noYield.count(f.name) > 0;

        for (const Call& c : f.calls) {
            if (c.callee == f.name)
                continue;

            // 1. AP_NO_YIELD body reaching a yield through a wrapper.
            if (noYieldFn &&
                inferredOnly(sums.yields, g.yields, c.callee)) {
                emit(findings, m, c.line, "contract-propagation",
                     "'" + c.callee +
                         "' may yield the fiber transitively (" +
                         chainVia(c.callee, sums.yieldsWitness) +
                         ") but '" + f.name + "' is AP_NO_YIELD");
            }

            // 2. Inferred yield while a registered lock is held.
            if (!noYieldFn && !isLockOp(c.callee) &&
                inferredOnly(sums.yields, g.yields, c.callee)) {
                for (const HeldRegion& r : regions) {
                    if (inRegion(r, c.tokIndex)) {
                        emit(findings, m, c.line, "contract-propagation",
                             "'" + c.callee +
                                 "' may yield transitively (" +
                                 chainVia(c.callee,
                                          sums.yieldsWitness) +
                                 ") while lock class '" + r.lockClass +
                                 "' (acquired line " +
                                 std::to_string(r.line) + ") is held");
                        break;
                    }
                }
            }

            // 3. Inferred lockstep entry under a divergent lane guard.
            if (inferredOnly(sums.lockstep, g.lockstep, c.callee)) {
                for (int sidx = c.scope; sidx >= 0;
                     sidx = f.scopes[sidx].parent) {
                    const ScopeNode& sc = f.scopes[sidx];
                    if (sc.kind != ScopeKind::If &&
                        sc.kind != ScopeKind::Loop &&
                        sc.kind != ScopeKind::Else)
                        continue;
                    bool divergent = false;
                    for (const std::string& id : sc.condIdents)
                        if (laneIsh(id))
                            divergent = true;
                    if (divergent) {
                        emit(findings, m, c.line, "contract-propagation",
                             "'" + c.callee +
                                 "' is lockstep by inference (" +
                                 chainVia(c.callee,
                                          sums.lockstepWitness) +
                                 ") but is called under a "
                                 "lane-divergent guard (line " +
                                 std::to_string(sc.line) + ")");
                        break;
                    }
                }
            }

            // 4. Inferred leader-only callee from a non-electing body.
            if (!elects && !g.leaderOnly.count(f.name) &&
                inferredOnly(sums.leaderOnly, g.leaderOnly, c.callee)) {
                emit(findings, m, c.line, "contract-propagation",
                     "'" + c.callee + "' is leader-only by inference (" +
                         chainVia(c.callee, sums.leaderOnlyWitness) +
                         ") but '" + f.name +
                         "' neither elects a leader nor is marked "
                         "AP_LEADER_ONLY/AP_ELECTS_LEADER");
            }

            // 5. Interprocedural lock-order closure: the callee's
            // transitive (not directly declared) acquires must come
            // later in the canonical order than anything held here.
            auto effIt = sums.acquires.find(c.callee);
            if (effIt == sums.acquires.end())
                continue;
            auto declIt = g.acquires.find(c.callee);
            for (const std::string& d : effIt->second) {
                if (declIt != g.acquires.end() && declIt->second.count(d))
                    continue; // direct acquires: v1 lock-order rule
                for (const HeldRegion& r : regions) {
                    if (!inRegion(r, c.tokIndex) || r.lockClass == d)
                        continue;
                    if (rank(r.lockClass) >= 0 && rank(d) >= 0 &&
                        rank(r.lockClass) >= rank(d)) {
                        emit(findings, m, c.line, "contract-propagation",
                             "'" + c.callee +
                                 "' may transitively acquire '" + d +
                                 "' while '" + r.lockClass +
                                 "' is held, violating the declared "
                                 "lock order");
                    }
                }
            }
        }
    }
}

} // namespace ap::lint
