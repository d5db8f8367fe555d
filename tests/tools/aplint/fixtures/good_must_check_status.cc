// Fixture: AP_MUST_CHECK statuses inspected on every path — read in a
// condition before being overwritten, read on both arms of a branch,
// and read before an early return or a break leaves the scope.
// Expected: clean. Lint fodder only; never compiled.

struct Io
{
    IoStatus poll() AP_MUST_CHECK;
    IoStatus readToGpu(int page) AP_MUST_CHECK;
};

bool
checksEverything(Io& io)
{
    IoStatus st = io.poll();
    if (st != IoStatus::Ok)
        return false;
    st = io.poll();
    return st == IoStatus::Ok;
}

bool
checkedOnBothArms(Io& io, bool fast)
{
    IoStatus st = io.poll();
    if (fast)
        return st == IoStatus::Ok;
    return st != IoStatus::Eof;
}

int
checkedBeforeEarlyReturn(Io& io, bool bail)
{
    IoStatus st = io.readToGpu(0);
    if (st != IoStatus::Ok || bail)
        return -1;
    return 0;
}

int
checkedBeforeBreak(Io& io, int n)
{
    int ok = 0;
    for (int i = 0; i < n; ++i) {
        IoStatus st = io.readToGpu(i);
        if (st != IoStatus::Ok)
            break;
        ++ok;
    }
    return ok;
}
