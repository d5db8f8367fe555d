// Fixture: PteState publication discipline violations. One function
// publishes Ready without declaring any transition; another declares
// Loading->Error but neither its body nor any callee ever publishes
// Error. Expected: state-edge (twice). Lint fodder only.

PteEdge kPteStateMachine[] = {
    {"Loading", "Ready"},
    {"Loading", "Error"},
};

struct Entry
{
    unsigned state;
};

void
publishReadyUndeclared(Entry* e)
{
    e->state = PteState::Ready; // BUG: no covering AP_TRANSITIONS
}

void
declaredButSilent(Entry* e) AP_TRANSITIONS("Loading->Error")
{
    e->state = 0; // BUG: the declared Error edge is never witnessed
}
