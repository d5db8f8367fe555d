/**
 * @file
 * Per-function flow-sensitive dataflow over the token stream: one
 * domain of the shared driver (absint.hh, which also states how
 * paths, loops, `switch` and lambdas are walked). It powers two rule
 * families:
 *
 *   must-check-status  A result of an AP_MUST_CHECK call (or any call
 *                      stored into an `IoStatus`-typed local) that is
 *                      discarded at the call site, overwritten before
 *                      being read, or goes out of scope uninspected on
 *                      some path (an early `return`, `break` or
 *                      `continue` leaves scopes too). Any read — a
 *                      condition, comparison, argument, return, or
 *                      member access — counts as an inspection.
 *
 *   linked-escape      The raw pointer from an AP_REQUIRES_LINKED /
 *                      AP_RETURNS_LINKED call escapes its link: it is
 *                      returned or stored into a field, straight from
 *                      the call (`return p.linkedFramePtr(0)`) or
 *                      through a local, or a local holding it is used
 *                      after an AP_YIELDS call (declared or inferred,
 *                      see callgraph.hh) or after the source
 *                      translation is unlinked. A function annotated
 *                      as vending linked pointers may return one.
 *
 * Lattices are deliberately tiny: status locals carry one bit (read /
 * unread, joined with AND so "inspected on every path" is required);
 * linked locals carry live / stale-with-witness (joined with OR).
 */

#ifndef APLINT_DATAFLOW_HH
#define APLINT_DATAFLOW_HH

#include "callgraph.hh"
#include "rules.hh"

#include <vector>

namespace ap::lint {

/**
 * Run both dataflow rule families over one file. `sums` may be null
 * (whole-program passes disabled); declared annotations alone then
 * drive yield invalidation.
 */
void runDataflow(const FileModel& m, const GlobalModel& g,
                 const Summaries* sums,
                 std::vector<Finding>& findings);

} // namespace ap::lint

#endif // APLINT_DATAFLOW_HH
