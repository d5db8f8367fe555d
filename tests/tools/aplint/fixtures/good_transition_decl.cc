// Fixture: transition declarations done right — every edge is
// well-formed and registered in the kPteStateMachine initializer.
// Must lint clean.

PteEdge kPteStateMachine[] = {
    {"Loading", "Ready"},
    {"Loading", "Error"},
};

struct Pt
{
    void fill() AP_TRANSITIONS("Loading->Ready");
    void fail() AP_TRANSITIONS("Loading->Ready", "Loading->Error");
};
