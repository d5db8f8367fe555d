// Fixture: the three lock-order defects — registering a lock class
// kLockOrder does not rank, acquiring a registered lock with no
// AP_ACQUIRES declaration, and nesting against the declared
// hierarchy. Expected: lock-order (three times). Lint fodder only;
// never compiled.

const char* kLockOrder[] = {"tlb.entry", "pt.bucket", "pc.alloc"};

struct Tables
{
    Lock entry AP_LOCK_LEVEL("tlb.entry");
    Lock bucket AP_LOCK_LEVEL("pt.bucket");
    Lock staging AP_LOCK_LEVEL("pc.staging"); // BUG: not ranked
};

void
undeclaredAcquire(Tables& t)
{
    t.bucket.acquire();
    t.bucket.release();
}

void
invertedNesting(Tables& t)
    AP_ACQUIRES("pt.bucket") AP_ACQUIRES("tlb.entry")
{
    t.bucket.acquire();
    t.entry.acquire();
    t.entry.release();
    t.bucket.release();
}
