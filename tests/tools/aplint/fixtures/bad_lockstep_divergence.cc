// Fixture: an AP_LOCKSTEP method invoked under guards that depend on
// the lane index, in an `if` arm and in an `else` arm. Expected:
// lockstep-divergence (twice). Lint fodder only; never compiled.

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
