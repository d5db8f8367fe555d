/**
 * @file
 * Diagnostic records produced by the simcheck analyses. Reports are
 * collected (and optionally escalated to panic) by SimCheck; tests for
 * the checker itself inspect them via SimCheck::reports().
 */

#ifndef AP_SIM_CHECK_REPORT_HH
#define AP_SIM_CHECK_REPORT_HH

#include <string>

namespace ap::sim::check {

/** Which analysis produced a report. */
enum class ReportKind {
    DataRace,  ///< conflicting unsynchronized accesses (vector clocks)
    LockCycle, ///< cycle in the lock-acquisition-order graph
    LockOrder, ///< nesting that contradicts the declared ap::kLockOrder
    Invariant, ///< a paper invariant was violated (refcounts, PTE edges)
    Hang,      ///< a warp was still blocked when the event queue drained
};

/** Printable name of a report kind. */
inline const char*
reportKindName(ReportKind k)
{
    switch (k) {
      case ReportKind::DataRace:
        return "data-race";
      case ReportKind::LockCycle:
        return "lock-cycle";
      case ReportKind::LockOrder:
        return "lock-order";
      case ReportKind::Invariant:
        return "invariant";
      case ReportKind::Hang:
        return "hang";
    }
    return "?";
}

/** One diagnostic from the checker. */
struct Report
{
    ReportKind kind;
    /** Human-readable description (addresses, lock names, page keys). */
    std::string message;
    /** Simulated cycle at which the violation was observed. */
    double cycle = 0;
    /** Actor (warp/host) that tripped the check; -1 if unknown. */
    int actor = -1;
};

} // namespace ap::sim::check

#endif // AP_SIM_CHECK_REPORT_HH
