/**
 * @file
 * Whole-program layer over the per-file parser output: a call graph
 * keyed by unqualified function name, bottom-up contract summaries
 * (effective AP_YIELDS / AP_LOCKSTEP / AP_LEADER_ONLY / AP_ACQUIRES /
 * AP_TRANSITIONS inferred from callees by one fixpoint), and the
 * `contract-propagation` rule pass that diagnoses call sites whose
 * declared contract contradicts the inferred summary — including the
 * interprocedural lock-order closure ranked by ap::kLockOrder, the
 * table simcheck's runtime lock graph ranks by too.
 *
 * Soundness limits are documented in DESIGN.md: functions are merged
 * across overloads and classes by unqualified name, calls through
 * function pointers / std::function are invisible, and macro bodies
 * are never expanded.
 */

#ifndef APLINT_CALLGRAPH_HH
#define APLINT_CALLGRAPH_HH

#include "rules.hh"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace ap::lint {

/** One function node, merged across files by unqualified name. */
struct CgNode
{
    std::string name;
    std::set<std::string> callees; ///< names called from any body
    bool hasBody = false;
    /** Body contains the ballot+ffs leader-election idiom. */
    bool elects = false;
};

struct CallGraph
{
    std::map<std::string, CgNode> nodes;
    /** Reverse edges: callee name -> caller names. */
    std::map<std::string, std::set<std::string>> callers;
};

/** Net-refcount interval; bounds at +/-kInf mean "unbounded". */
struct Interval
{
    static constexpr int kInf = 1 << 20;
    int lo = 0;
    int hi = 0;
    bool operator==(const Interval&) const = default;
    bool zero() const { return lo == 0 && hi == 0; }
};

/**
 * Inferred (effective) contract summaries, the one struct every
 * whole-program pass reads. Declared annotations are included, so
 * `yields.count(f)` answers "may f reach a yield point", not "is f
 * textually annotated". The `*Witness` maps hold a short callee chain
 * ("a -> b -> block") explaining each inference, for diagnostics.
 */
struct Summaries
{
    std::set<std::string> yields;
    std::set<std::string> lockstep;
    std::set<std::string> leaderOnly;
    /** Transitive closure of AP_ACQUIRES over the call graph. */
    std::map<std::string, std::set<std::string>> acquires;
    /** Transitive closure of AP_TRANSITIONS over the call graph. */
    std::map<std::string, std::set<std::string>> transitions;
    std::map<std::string, std::string> yieldsWitness;
    std::map<std::string, std::string> lockstepWitness;
    std::map<std::string, std::string> leaderOnlyWitness;
    /** name -> class -> net ref effect over all return paths
     *  (unannotated bodies only; see computeRefSummaries). */
    std::map<std::string, std::map<std::string, Interval>> refEffects;
    std::map<std::string, std::string> refWitness;
};

/** Build the merged call graph from every parsed file. */
CallGraph buildCallGraph(const std::vector<FileModel>& files);

/** Bottom-up worklist fixpoint over the call graph. */
Summaries propagate(const CallGraph& cg, const GlobalModel& g);

/**
 * The contract-propagation rule: per-file pass diagnosing contracts
 * contradicted by inferred summaries (declared-annotation violations
 * stay with the v1 rules, so no call site is reported twice).
 */
void runPropagation(const FileModel& m, const GlobalModel& g,
                    const CallGraph& cg, const Summaries& sums,
                    std::vector<Finding>& findings);

} // namespace ap::lint

#endif // APLINT_CALLGRAPH_HH
