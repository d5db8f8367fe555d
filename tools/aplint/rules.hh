/**
 * @file
 * The aplint rule engine: cross-file registries built from AP_*
 * annotations plus the per-file checks. Its rule IDs (the catalog of
 * twelve is in docs/ANALYSIS.md, "Static matrix"):
 *
 *   leader-only          leader-only callee without a leader election
 *   lockstep-divergence  lockstep callee under a lane-divergent guard
 *   no-yield             yielding callee in AP_NO_YIELD or under a lock
 *   lock-order           unranked lock class, undeclared acquire, or a
 *                        nesting against the declared order
 *   assert-side-effect   AP_ASSERT/AP_CHECK condition mutates state
 *   waiver-syntax        malformed or unknown aplint waiver comment
 *
 * The first four are the call contracts. Each call site is checked
 * once, against the effective summaries of callgraph.hh: a callee's
 * contract is declared or inferred from its callees, and an inferred
 * one is reported with its witness chain.
 *
 * The other passes add must-check-status and linked-escape
 * (dataflow.hh), ref-balance, state-edge and transition-decl
 * (typestate.hh), and unused-waiver (driver.hh).
 *
 * Both protocol tables are read from their one declaration in
 * src/util/annotations.hh: the lock order from the `kLockOrder[]`
 * initializer and the PteState machine from `kPteStateMachine[]`.
 */

#ifndef APLINT_RULES_HH
#define APLINT_RULES_HH

#include "parser.hh"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace ap::lint {

/** One diagnostic. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
    bool waived = false;
    /** Non-fatal advisory (e.g. unused-waiver without --strict). */
    bool note = false;
    /** Matched an entry in the committed baseline; tolerated. */
    bool baselined = false;
};

/** Cross-file registries keyed by unqualified function name. */
struct GlobalModel
{
    std::set<std::string> lockstep;       ///< AP_LOCKSTEP
    std::set<std::string> leaderOnly;     ///< AP_LEADER_ONLY
    std::set<std::string> electsLeader;   ///< AP_ELECTS_LEADER
    std::set<std::string> noYield;        ///< AP_NO_YIELD
    std::set<std::string> yields;         ///< AP_YIELDS
    std::set<std::string> mustCheck;      ///< AP_MUST_CHECK
    /** AP_REQUIRES_LINKED plus AP_RETURNS_LINKED: both vend linked
     *  pointers, which the linked-escape rule tracks. */
    std::set<std::string> returnsLinked;
    /** function name -> lock classes it may acquire (AP_ACQUIRES). */
    std::map<std::string, std::set<std::string>> acquires;
    /** lock member/accessor name -> lock class (AP_LOCK_LEVEL). */
    std::map<std::string, std::string> lockNames;
    /** lock class -> position in the kLockOrder[] initializer,
     *  outermost first; empty if no file defines the table. */
    std::map<std::string, int> lockRank;
    /** function name -> resource class it acquires (AP_ACQUIRES_REF). */
    std::map<std::string, std::string> acquiresRef;
    /** function name -> resource class it releases (AP_RELEASES_REF). */
    std::map<std::string, std::string> releasesRef;
    /** AP_BALANCED functions: every path must net zero refs. */
    std::set<std::string> balanced;
    /** function name -> declared "A->B" edges (AP_TRANSITIONS). */
    std::map<std::string, std::set<std::string>> transitions;
    /** "A->B" edges of the kPteStateMachine[] initializer. */
    std::set<std::string> pteEdges;
};

// ---- helpers shared with the whole-program passes ----------------------

/** Append one finding of @p rule at @p line of @p m: every pass's emitter. */
void emit(std::vector<Finding>& out, const FileModel& m, int line,
          const char* rule, std::string msg);

/**
 * Does @p f call `ballot` and a find-first-set (`ffs`, `ffs32` or
 * `__ffs`, matched by name) before token @p tok? That pair is paper
 * Listing 1's leader election.
 */
bool electsBefore(const Func& f, size_t tok);

/**
 * Walk back from a call's callee token to the start of its receiver
 * chain (`pt.bucketLock(b).acquire` -> index of `pt`).
 */
size_t chainStart(const std::vector<Token>& toks, size_t i);

/** All rule IDs aplint can emit (used to validate waivers). */
const std::set<std::string>& knownRules();

/** Merge annotations and the protocol tables from every parsed file. */
GlobalModel buildGlobal(const std::vector<FileModel>& files);

struct Summaries;

/**
 * Run every rule of this engine on one file: the call contracts
 * against the effective summaries @p sums (propagate() seeds them from
 * @p g's declarations), the rest against @p g alone.
 */
void runRules(const FileModel& file, const GlobalModel& g,
              const Summaries& sums, std::vector<Finding>& findings);

} // namespace ap::lint

#endif // APLINT_RULES_HH
