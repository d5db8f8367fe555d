// Fixture: declared acquisitions nested in the declared order.
// Expected: clean. Lint fodder only; never compiled.

const char* kLockOrder[] = {"tlb.entry", "pt.bucket", "pc.alloc"};

struct Tables
{
    Lock entry AP_LOCK_LEVEL("tlb.entry");
    Lock bucket AP_LOCK_LEVEL("pt.bucket");
};

void
orderedNesting(Tables& t)
    AP_ACQUIRES("tlb.entry") AP_ACQUIRES("pt.bucket")
{
    t.entry.acquire();
    t.bucket.acquire();
    t.bucket.release();
    t.entry.release();
}
