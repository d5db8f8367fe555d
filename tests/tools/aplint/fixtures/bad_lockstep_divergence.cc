// Fixture: an AP_LOCKSTEP method invoked under guards that depend on
// the lane index: in an `if` arm, in an `else` arm, in the dangling
// `else` of an unbraced inner `if` on the lane, in the dangling `else`
// of a uniform inner `if` under an outer one on the lane, and in the
// `else` of an unbraced `if` under an unbraced loop. Expected:
// lockstep-divergence (five times). Lint fodder only; never compiled.

struct AptrVec
{
    void read(int i) AP_LOCKSTEP;
};

void
divergentRead(AptrVec& p, int lane)
{
    if (lane == 0)
        p.read(lane);
}

void
divergentElse(AptrVec& p, int lane, int* out)
{
    if (lane == 0) {
        *out = 0;
    } else {
        p.read(lane);
    }
}

void
danglingElse(AptrVec& p, bool ok, int lane, int* out)
{
    // The `else` belongs to `if (lane == 0)`, not to `if (ok)`.
    if (ok)
        if (lane == 0)
            *out = 1;
        else
            p.read(0);
}

void
danglingElseUnderLaneTest(AptrVec& p, int lane, bool warm, int* out)
{
    // The `else` belongs to `if (warm)`, inside `if (lane == 0)`.
    if (lane == 0)
        if (warm)
            *out = 1;
        else
            p.read(0);
}

void
elseInLoop(AptrVec& p, int lane, int n, int* out)
{
    for (int i = 0; i < n; ++i)
        if (lane == i)
            *out = i;
        else
            p.read(i);
}
