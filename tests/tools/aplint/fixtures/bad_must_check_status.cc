// Fixture: the ways an AP_MUST_CHECK status gets lost — dropped as a
// bare statement, overwritten before inspection, falling out of scope
// unread, and left unread on an early-return or a break path that
// skips the later inspection. Expected: must-check-status (five
// times). Lint fodder only; never compiled.

struct Io
{
    IoStatus poll() AP_MUST_CHECK;
    IoStatus readToGpu(int page) AP_MUST_CHECK;
};

void
dropOnFloor(Io& io)
{
    io.poll();
}

int
overwriteUnread(Io& io)
{
    IoStatus st = io.poll();
    st = io.poll();
    return st == IoStatus::Ok ? 1 : 0;
}

void
dropOutOfScope(Io& io)
{
    IoStatus st = io.poll();
}

int
dropOnEarlyReturn(Io& io, bool bail)
{
    IoStatus st = io.readToGpu(0);
    if (bail)
        return -1;
    return st == IoStatus::Ok ? 0 : 1;
}

int
dropOnBreak(Io& io, int n)
{
    int ok = 0;
    for (int i = 0; i < n; ++i) {
        IoStatus st = io.readToGpu(i);
        if (i == n / 2)
            break;
        ok += st == IoStatus::Ok;
    }
    return ok;
}
