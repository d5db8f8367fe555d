/**
 * @file
 * The aplint rule engine: cross-file registries built from AP_*
 * annotations plus the per-file checks. Rule IDs (see docs/ANALYSIS.md
 * "Static matrix"):
 *
 *   leader-only          AP_LEADER_ONLY callee without leader election
 *   lockstep-divergence  AP_LOCKSTEP call under a divergent lane guard
 *   no-yield             yielding call in AP_NO_YIELD or under a lock
 *   lock-order           undeclared/misordered registered-lock acquire
 *   linked-escape        AP_REQUIRES_LINKED pointer escapes its scope
 *   assert-side-effect   AP_ASSERT/AP_CHECK condition mutates state
 *   waiver-syntax        malformed or unknown aplint waiver comment
 *
 * The v2 whole-program layer (callgraph.hh, dataflow.hh) adds:
 *
 *   must-check-status    AP_MUST_CHECK result dropped, overwritten, or
 *                        out of scope before inspection
 *   linked-escape-v2     linked raw pointer stored/returned via a
 *                        local, or used after a yield or unlink
 *   contract-propagation declared contract contradicts the summary
 *                        inferred bottom-up from callees
 *   unused-waiver        a waiver whose rule no longer fires there
 *
 * The v3 typestate layer (typestate.hh) adds:
 *
 *   ref-balance          net refcount on a tracked resource class
 *                        violates the function's declared effect
 *                        (AP_ACQUIRES_REF / AP_RELEASES_REF /
 *                        AP_BALANCED) on some path
 *   state-edge           PteState publication outside the function's
 *                        AP_TRANSITIONS declaration, or a declared
 *                        edge with no witnessing publication
 *   transition-decl      malformed or empty AP_TRANSITIONS, or an edge
 *                        not in the registered machine
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
    std::set<std::string> requiresLinked; ///< AP_REQUIRES_LINKED
    std::set<std::string> noYield;        ///< AP_NO_YIELD
    std::set<std::string> yields;         ///< AP_YIELDS
    std::set<std::string> mustCheck;      ///< AP_MUST_CHECK
    /** AP_RETURNS_LINKED plus AP_REQUIRES_LINKED (both vend linked
     *  pointers; the v2 escape rule tracks either). */
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

/** A [acquire, release) span of a registered lock class, token order. */
struct HeldRegion
{
    std::string lockClass;
    size_t beginTok; ///< token index of the acquire callee
    size_t endTok;   ///< token index of the release, or SIZE_MAX
    int line;
};

/** Is this condition identifier lane-dependent? */
bool laneIsh(const std::string& ident);

/** Find `auto& lk = ... <registered>() ...;` aliases in a body. */
std::map<std::string, std::string>
collectAliases(const FileModel& m, const Func& f, const GlobalModel& g);

/** Pair up acquire/release call sites into held regions. */
std::vector<HeldRegion>
computeHeldRegions(const Func& f, const GlobalModel& g,
                   const std::map<std::string, std::string>& aliases);

/** Is the token inside the region's (begin, end) span? */
bool inRegion(const HeldRegion& r, size_t tok);

/**
 * Walk back from a call's callee token to the start of its receiver
 * chain (`pt.bucketLock(b).acquire` -> index of `pt`).
 */
size_t chainStart(const std::vector<Token>& toks, size_t i);

/** All rule IDs aplint can emit (used to validate waivers). */
const std::set<std::string>& knownRules();

/** Merge annotations and the protocol tables from every parsed file. */
GlobalModel buildGlobal(const std::vector<FileModel>& files);

/** Run every rule on one file against the global registries. */
void runRules(const FileModel& file, const GlobalModel& g,
              std::vector<Finding>& findings);

} // namespace ap::lint

#endif // APLINT_RULES_HH
