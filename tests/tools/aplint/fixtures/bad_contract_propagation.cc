// Fixture: an AP_NO_YIELD body calling helpers that are not annotated
// AP_YIELDS but reach a yield point transitively — one hop and two
// hops deep. Only the bottom-up summary sees either, and each finding
// names its chain. Expected: no-yield (twice). Lint fodder only; never
// compiled.

struct Engine
{
    void block() AP_YIELDS;
};

void
helper(Engine& e)
{
    e.block();
}

void
hop(Engine& e)
{
    helper(e);
}

void
spinCritical(Engine& e) AP_NO_YIELD
{
    helper(e);
}

void
spinCriticalDeep(Engine& e) AP_NO_YIELD
{
    hop(e);
}
