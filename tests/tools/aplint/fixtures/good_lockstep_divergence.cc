// Fixture: AP_LOCKSTEP methods called under warp-uniform control flow
// only — a mask test (ballot masks are uniform), a plain counted loop,
// and the `else` of a uniform unbraced `if` inside a loop, after an
// earlier lane-dependent `if` it must not be bound to. Expected:
// clean. Lint fodder only; never compiled.

struct AptrVec
{
    void read(int i) AP_LOCKSTEP;
};

void
uniformRead(AptrVec& p, unsigned mask)
{
    if (mask != 0)
        p.read(0);
    for (int i = 0; i < 4; ++i)
        p.read(i);
}

void
uniformElseAfterLaneTest(AptrVec& p, int lane, bool warm, int* out)
{
    if (lane == 0) {
        *out = 0;
    }
    for (int i = 0; i < 4; ++i)
        if (warm)
            *out = i;
        else
            p.read(i);
}
