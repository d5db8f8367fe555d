#include "callgraph.hh"

namespace ap::lint {

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
            if (electsBefore(f, f.bodyEnd))
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
                // Acquires and transitions: plain transitive closure,
                // with a witness per inferred lock class.
                if (auto it = s.acquires.find(callee);
                    it != s.acquires.end()) {
                    for (const std::string& cls : it->second) {
                        if (!s.acquires[name].insert(cls).second)
                            continue;
                        auto& w = s.acquiresWitness[cls];
                        w[name] = chainVia(callee, w);
                        changed = true;
                    }
                }
                if (auto it = s.transitions.find(callee);
                    it != s.transitions.end())
                    for (const std::string& edge : it->second)
                        if (s.transitions[name].insert(edge).second)
                            changed = true;
            }
        }
    }
    return s;
}

} // namespace ap::lint
