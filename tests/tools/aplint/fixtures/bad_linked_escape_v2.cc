// Fixture: variable-mediated escapes of a linked raw pointer, beside
// the direct ones of bad_linked_escape.cc — returned via a local,
// stored into object state via a local, used after an AP_YIELDS call,
// and used after the frame is unlinked. Expected: linked-escape (four
// times). Lint fodder only; never compiled.

struct AptrVec
{
    const int* linkedFramePtr(int lane) AP_REQUIRES_LINKED;
    void destroy(int lane);
};

struct Engine
{
    void block() AP_YIELDS;
};

struct Holder
{
    const int* stash;
};

const int*
leakViaLocal(AptrVec& p)
{
    const int* q = p.linkedFramePtr(0);
    return q;
}

void
leakViaStore(Holder& h, AptrVec& p)
{
    const int* q = p.linkedFramePtr(0);
    h.stash = q;
}

int
useAfterYield(AptrVec& p, Engine& e)
{
    const int* q = p.linkedFramePtr(0);
    e.block();
    return consume(q);
}

int
useAfterUnlink(AptrVec& p)
{
    const int* q = p.linkedFramePtr(0);
    p.destroy(0);
    return consume(q);
}
