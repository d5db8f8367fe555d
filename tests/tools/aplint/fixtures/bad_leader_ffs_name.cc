// Fixture: a ballot followed by a call whose name merely contains
// "ffs" (fileOffset), then an AP_LEADER_ONLY function. Only `ffs`,
// `ffs32` and `__ffs` complete paper Listing 1's election, so every
// lane still reaches the callee. Expected: leader-only. Lint fodder
// only; never compiled.

struct Cache
{
    void acquirePage(int n) AP_LEADER_ONLY;
};

void
ballotThenOffset(Warp& w, Cache& c, File& f)
{
    unsigned mask = w.ballot(1);
    use(f.fileOffset(mask));
    c.acquirePage(2);
}
