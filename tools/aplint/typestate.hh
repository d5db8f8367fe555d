/**
 * @file
 * Typestate verification of the page lifecycle: path-sensitive
 * abstract interpretation over per-function token streams that checks
 * the declared resource protocols (see docs/ANALYSIS.md and
 * DESIGN.md §9.2):
 *
 *   ref-balance     Net refcount effect on a tracked resource class
 *                   ("pc.page", "pc.staging") violates the function's
 *                   declaration on some return path. AP_ACQUIRES_REF
 *                   bodies may net 0 (failure path) or +1;
 *                   AP_RELEASES_REF bodies must net exactly -1 on
 *                   every path (checked only when the body contains a
 *                   tracked event — an event-free body is a trusted
 *                   leaf boundary); AP_BALANCED bodies must net
 *                   exactly 0 for every class on every path, early
 *                   returns and error branches included.
 *
 *   state-edge      A PteState publication (a `.state =` assignment
 *                   or a `store(...stateAddr..., ...PteState::S...)`
 *                   call) not covered by an AP_TRANSITIONS edge
 *                   `*->S` on the enclosing function, or a declared
 *                   edge with no witnessing publication in the body
 *                   or a (transitively) declaring callee.
 *
 *   transition-decl Malformed AP_TRANSITIONS edge, an edge absent
 *                   from the registered machine (the `pte-edges:`
 *                   comment directive, the static twin of
 *                   ap::kPteStateMachine), or drift between the
 *                   directive and the kPteStateMachine initializer.
 *
 * The abstract domain is one interval [lo, hi] of net acquisitions
 * per resource class, walked by the shared driver (absint.hh). Branch
 * join is the interval hull; a bound still moving after a loop's
 * first pass is widened to +/-infinity; every return path's state is
 * checked on its own. Call effects come from
 * the declarations (AP_ACQUIRES_REF +1, AP_RELEASES_REF -1,
 * AP_BALANCED 0) or, through the call-graph fixpoint, from inferred
 * summaries of unannotated helpers — so a helper that leaks a
 * reference is caught at its annotated caller with a witness chain.
 */

#ifndef APLINT_TYPESTATE_HH
#define APLINT_TYPESTATE_HH

#include "callgraph.hh"
#include "rules.hh"

#include <string>
#include <vector>

namespace ap::lint {

/** Interval hull (branch join). */
Interval joinIv(Interval a, Interval b);

/** Saturating pointwise sum (sequential composition). */
Interval addIv(Interval a, Interval b);

/** "+1", "[-1,0]", "[2,+inf]" -- human-readable bounds. */
std::string ivText(Interval v);

/**
 * Interprocedural ref-effect summaries, computed bottom-up over the
 * call graph into @p sums (refEffects, refWitness). Annotated
 * functions are fixed boundaries (their declaration is their effect);
 * unannotated bodies are interpreted and their joined return-path
 * effect propagated to callers. The AP_TRANSITIONS closure is
 * propagate()'s.
 */
void computeRefSummaries(const std::vector<FileModel>& files,
                         const GlobalModel& g, const CallGraph& cg,
                         Summaries& sums);

/**
 * Run the typestate rules over one file. `sums` may be null (unit
 * tests): declared annotations alone then drive call
 * effects and edge witnessing.
 */
void runTypestate(const FileModel& m, const GlobalModel& g,
                  const Summaries* sums, std::vector<Finding>& findings);

} // namespace ap::lint

#endif // APLINT_TYPESTATE_HH
