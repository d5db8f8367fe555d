// Fixture: broken transition declarations — a malformed edge, an edge
// absent from the registered machine, and an empty list.
// Declaration-only methods keep the state-edge witness checks out of
// the picture. Expected: transition-decl (three times). Lint fodder
// only.

PteEdge kPteStateMachine[] = {
    {"Loading", "Ready"},
    {"Ready", "Claimed"},
};

struct Pt
{
    void malformedEdge() AP_TRANSITIONS("Loading");       // BUG: no arrow
    void unregistered() AP_TRANSITIONS("Ready->Loading"); // BUG: no such edge
    void emptyList() AP_TRANSITIONS();                    // BUG: no edges
};
