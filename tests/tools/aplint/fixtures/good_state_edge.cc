// Fixture: PteState publication discipline done right — a direct
// field publication, a store-to-state-word publication, and a caller
// whose declared edge is witnessed by a declaring callee. Must lint
// clean.

PteEdge kPteStateMachine[] = {
    {"Loading", "Ready"},
    {"Loading", "Error"},
};

struct Entry
{
    unsigned state;
};

void
publishReady(Entry* e) AP_TRANSITIONS("Loading->Ready")
{
    e->state = PteState::Ready;
}

void
failFill(Entry* e, unsigned stateAddr) AP_TRANSITIONS("Loading->Error")
{
    store(stateAddr, PteState::Error);
}

void
fillAndPublish(Entry* e) AP_TRANSITIONS("Loading->Ready")
{
    publishReady(e); // edge witnessed through the callee declaration
}
