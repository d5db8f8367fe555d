#include "sim/check/simcheck.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "sim/fiber.hh"
#include "tenant/asid.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace ap::sim::check {

namespace {

/** Soft cap: past this many stored reports, only count them. */
constexpr size_t kMaxStoredReports = 1000;

std::string
hexAddr(uint64_t a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

/** Position of @p lock_class in ap::kLockOrder; -1 if unranked. */
int
lockRank(const char* lock_class)
{
    int rank = 0;
    for (const char* c : ap::kLockOrder) {
        if (std::string_view(c) == lock_class)
            return rank;
        ++rank;
    }
    return -1;
}

} // namespace

SimCheck::SimCheck()
{
    const char* env = std::getenv("AP_SIMCHECK");
    const bool on = env && env[0] != '\0' && env[0] != '0';
    // Fresh actor table with the host as actor 0.
    reset();
    setEnabled(on);
    failOnReport_ = on;
}

SimCheck&
SimCheck::get()
{
    static SimCheck instance;
    return instance;
}

uint64_t
SimCheck::nextId()
{
    static uint64_t id = 0;
    return ++id;
}

void
SimCheck::setEnabled(bool on)
{
    enabled_ = on;
    armed = on;
}

void
SimCheck::reset()
{
    clocks.clear();
    actorNames_.clear();
    fiberActors.clear();
    lastFiber = nullptr;
    lastActor = kHostActor;
    channels.clear();
    fiberChannels.clear();
    hostChannel = VClock{};
    shadow.clear();
    held.clear();
    lockTags.clear();
    lockGraph.clear();
    pages.clear();
    reports_.clear();
    dedup.clear();
    relaxedDepth.clear();

    clocks.emplace_back();
    clocks[kHostActor].set(kHostActor, 1);
    actorNames_.emplace_back("host");
}

// ----------------------------------------------------------------------
// Actors
// ----------------------------------------------------------------------

int
SimCheck::registerFiber(const void* fiber, std::string label)
{
    int actor = static_cast<int>(clocks.size());
    clocks.emplace_back();
    clocks[actor].set(actor, 1);
    actorNames_.push_back(std::move(label));
    fiberActors[fiber] = actor;
    // A fresh fiber may reuse the heap address of a dead one.
    fiberChannels.erase(fiber);
    if (fiber == lastFiber)
        lastActor = actor;
    return actor;
}

int
SimCheck::currentActor()
{
    const Fiber* f = Fiber::current();
    if (f == nullptr)
        return kHostActor;
    if (f == lastFiber)
        return lastActor;
    auto it = fiberActors.find(f);
    int actor = it == fiberActors.end() ? kHostActor : it->second;
    lastFiber = f;
    lastActor = actor;
    return actor;
}

const std::string&
SimCheck::actorName(int actor) const
{
    static const std::string unknown = "?";
    if (actor < 0 || static_cast<size_t>(actor) >= actorNames_.size())
        return unknown;
    return actorNames_[actor];
}

VClock&
SimCheck::actorClock(int actor)
{
    AP_ASSERT(actor >= 0 && static_cast<size_t>(actor) < clocks.size(),
              "unregistered simcheck actor ", actor);
    return clocks[actor];
}

uint64_t
SimCheck::epochNow(int actor)
{
    return actorClock(actor).get(actor);
}

void
SimCheck::bumpClock(int actor)
{
    VClock& c = actorClock(actor);
    c.set(actor, c.get(actor) + 1);
}

// ----------------------------------------------------------------------
// Happens-before edges
// ----------------------------------------------------------------------

void
SimCheck::syncAcquire(uint64_t chan)
{
    if (!enabled_)
        return;
    auto it = channels.find(chan);
    if (it != channels.end())
        actorClock(currentActor()).join(it->second);
}

void
SimCheck::syncRelease(uint64_t chan)
{
    if (!enabled_)
        return;
    int a = currentActor();
    channels[chan].join(actorClock(a));
    bumpClock(a);
}

void
SimCheck::syncRmw(uint64_t chan)
{
    if (!enabled_)
        return;
    syncAcquire(chan);
    syncRelease(chan);
}

void
SimCheck::edgeToFiber(const void* fiber)
{
    if (!enabled_)
        return;
    int a = currentActor();
    fiberChannels[fiber].join(actorClock(a));
    bumpClock(a);
}

void
SimCheck::fiberResuming(const void* fiber)
{
    if (!enabled_)
        return;
    auto fit = fiberActors.find(fiber);
    if (fit == fiberActors.end())
        return;
    auto cit = fiberChannels.find(fiber);
    if (cit != fiberChannels.end())
        actorClock(fit->second).join(cit->second);
}

void
SimCheck::hostRelease()
{
    if (!enabled_)
        return;
    int a = currentActor();
    hostChannel.join(actorClock(a));
    bumpClock(a);
}

void
SimCheck::hostJoin()
{
    if (!enabled_)
        return;
    actorClock(kHostActor).join(hostChannel);
}

// ----------------------------------------------------------------------
// Data-race detection
// ----------------------------------------------------------------------

void
SimCheck::relaxedEnter()
{
    ++relaxedDepth[currentActor()];
}

void
SimCheck::relaxedExit()
{
    --relaxedDepth[currentActor()];
}

bool
SimCheck::relaxedHere()
{
    auto it = relaxedDepth.find(currentActor());
    return it != relaxedDepth.end() && it->second > 0;
}

void
SimCheck::onRead(uint32_t mem, uint64_t addr, size_t len)
{
    if (!enabled_ || len == 0 || relaxedHere())
        return;
    onAccess(mem, addr, len, false);
}

void
SimCheck::onWrite(uint32_t mem, uint64_t addr, size_t len)
{
    if (!enabled_ || len == 0 || relaxedHere())
        return;
    onAccess(mem, addr, len, true);
}

void
SimCheck::onAccess(uint32_t mem, uint64_t addr, size_t len, bool isWrite)
{
    int actor = currentActor();
    uint64_t first = addr >> 3;
    uint64_t last = (addr + len - 1) >> 3;
    for (uint64_t g = first; g <= last; ++g) {
        uint64_t lo = g == first ? addr & 7 : 0;
        uint64_t hi = g == last ? ((addr + len - 1) & 7) : 7;
        uint8_t mask = 0;
        for (uint64_t b = lo; b <= hi; ++b)
            mask |= static_cast<uint8_t>(1u << b);
        granuleAccess(mem, g, mask, isWrite, actor);
    }
}

void
SimCheck::granuleAccess(uint32_t mem, uint64_t gaddr, uint8_t mask,
                        bool isWrite, int actor)
{
    Shadow& sh = shadow[(static_cast<uint64_t>(mem) << 40) | gaddr];
    const VClock& myClock = actorClock(actor);

    // A write conflicts with prior reads and writes; a read only with
    // prior writes.
    for (const AccessRec& w : sh.writes) {
        if ((w.mask & mask) && w.e.actor != actor && !myClock.covers(w.e))
            raceReport(mem, gaddr, mask, isWrite, actor, w, true);
    }
    if (isWrite) {
        for (const AccessRec& r : sh.reads) {
            if ((r.mask & mask) && r.e.actor != actor &&
                !myClock.covers(r.e))
                raceReport(mem, gaddr, mask, isWrite, actor, r, false);
        }
    }

    Epoch e{actor, epochNow(actor)};
    if (isWrite) {
        // This write supersedes all older history of the same bytes.
        auto strip = [&](std::vector<AccessRec>& v) {
            size_t o = 0;
            for (AccessRec& rec : v) {
                rec.mask &= static_cast<uint8_t>(~mask);
                if (rec.mask)
                    v[o++] = rec;
            }
            v.resize(o);
        };
        strip(sh.writes);
        strip(sh.reads);
        sh.writes.push_back(AccessRec{e, mask});
    } else {
        // Replace this actor's older reads of the same bytes.
        size_t o = 0;
        for (AccessRec& rec : sh.reads) {
            if (rec.e.actor == actor)
                rec.mask &= static_cast<uint8_t>(~mask);
            if (rec.mask)
                sh.reads[o++] = rec;
        }
        sh.reads.resize(o);
        sh.reads.push_back(AccessRec{e, mask});
    }
}

void
SimCheck::raceReport(uint32_t mem, uint64_t gaddr, uint8_t mask,
                     bool isWrite, int actor, const AccessRec& prior,
                     bool priorWrite)
{
    uint64_t base = gaddr << 3;
    // First byte both accesses touch, for a precise diagnostic.
    uint8_t overlap = prior.mask & mask;
    int byte = 0;
    while (!(overlap & (1u << byte)))
        ++byte;
    std::ostringstream key;
    key << "race:" << mem << ":" << gaddr << ":" << prior.e.actor << ":"
        << actor;
    std::ostringstream msg;
    msg << "data race on mem" << mem << " addr " << hexAddr(base + byte)
        << ": " << (isWrite ? "write" : "read") << " by "
        << actorName(actor) << " races with prior "
        << (priorWrite ? "write" : "read") << " by "
        << actorName(prior.e.actor)
        << " (no happens-before edge between them)";
    report(ReportKind::DataRace, key.str(), msg.str());
}

// ----------------------------------------------------------------------
// Lock-order graph
// ----------------------------------------------------------------------

std::string
SimCheck::lockName(uint64_t id) const
{
    const LockTag& tag = lockTags.at(id);
    return std::string(tag.cls) + "[" + std::to_string(tag.index) + "]";
}

bool
SimCheck::findLockPath(uint64_t from, uint64_t to,
                       std::vector<uint64_t>& path,
                       std::unordered_set<uint64_t>& seen)
{
    if (from == to) {
        path.push_back(from);
        return true;
    }
    if (!seen.insert(from).second)
        return false;
    auto it = lockGraph.find(from);
    if (it == lockGraph.end())
        return false;
    for (const auto& [next, edge] : it->second) {
        if (findLockPath(next, to, path, seen)) {
            path.push_back(from);
            return true;
        }
    }
    return false;
}

void
SimCheck::onLockAcquired(uint64_t lock, const char* lock_class,
                         uint32_t index, int warp, double cycle)
{
    if (!enabled_)
        return;
    lockTags[lock] = LockTag{lock_class, index};
    const int rank = lockRank(lock_class);

    // The lock is also a synchronization channel.
    syncAcquire(objChan(lock, 0));

    int actor = currentActor();
    std::vector<HeldLock>& hl = held[actor];
    for (const HeldLock& outer : hl) {
        if (outer.id == lock)
            continue;
        if (rank >= 0 && outer.rank > rank) {
            std::ostringstream msg;
            msg << "lock-order inversion: " << lockName(lock)
                << " acquired by warp " << warp << " @ cycle " << cycle
                << " while holding " << lockName(outer.id)
                << " (acquired @ cycle " << outer.cycle
                << "), but ap::kLockOrder ranks " << lock_class
                << " before " << outer.cls;
            report(ReportKind::LockOrder,
                   std::string("lockorder:") + outer.cls + ":" + lock_class,
                   msg.str());
        }
        lockGraph[outer.id].emplace(
            lock, LockEdge{warp, outer.cycle, cycle});
        // Adding outer -> lock closes a cycle iff lock already reaches
        // outer through the graph.
        std::vector<uint64_t> path;
        std::unordered_set<uint64_t> seen;
        if (findLockPath(lock, outer.id, path, seen)) {
            // path unwinds as outer..lock; reversing yields the chain
            // lock -> .. -> outer, and appending lock closes the
            // cycle through the edge just added.
            std::vector<uint64_t> cyc(path.rbegin(), path.rend());
            cyc.push_back(lock);
            std::vector<uint64_t> sorted(path.begin(), path.end());
            std::sort(sorted.begin(), sorted.end());
            std::ostringstream key;
            key << "lockcycle";
            for (uint64_t id : sorted)
                key << ":" << id;
            std::ostringstream msg;
            msg << "lock-order cycle: ";
            for (size_t i = 0; i + 1 < cyc.size(); ++i) {
                const LockEdge* e = nullptr;
                auto git = lockGraph.find(cyc[i]);
                if (git != lockGraph.end()) {
                    auto eit = git->second.find(cyc[i + 1]);
                    if (eit != git->second.end())
                        e = &eit->second;
                }
                msg << lockName(cyc[i]) << " -> " << lockName(cyc[i + 1]);
                if (e)
                    msg << " [warp " << e->warp << ", outer @ cycle "
                        << e->fromCycle << ", inner @ cycle "
                        << e->toCycle << "]";
                if (i + 2 < cyc.size())
                    msg << ", ";
            }
            msg << "; closing edge acquired by warp " << warp
                << " @ cycle " << cycle;
            report(ReportKind::LockCycle, key.str(), msg.str());
        }
    }
    hl.push_back(HeldLock{lock, lock_class, rank, warp, cycle});
}

void
SimCheck::onLockReleased(uint64_t lock)
{
    if (!enabled_)
        return;
    // Release the channel before the waiter can observe the handoff.
    syncRelease(objChan(lock, 0));
    std::vector<HeldLock>& hl = held[currentActor()];
    for (size_t i = hl.size(); i-- > 0;) {
        if (hl[i].id == lock) {
            hl.erase(hl.begin() + i);
            return;
        }
    }
}

// ----------------------------------------------------------------------
// Invariant auditor
// ----------------------------------------------------------------------

namespace {

/**
 * Is @p from -> @p to an edge of the declared PteState machine? The
 * auditor's per-event preconditions below encode the same automaton
 * by hand; this lookup pins each commit to ap::kPteStateMachine so
 * the runtime checks cannot drift from the table aplint verifies
 * statically (tests/sim/test_pte_contracts.cc probes the equality).
 */
bool
edgeDeclared(const char* from, const char* to)
{
    for (const ap::PteEdge& e : ap::kPteStateMachine)
        if (std::string_view(e.from) == from &&
            std::string_view(e.to) == to)
            return true;
    return false;
}

} // namespace

void
SimCheck::auditEdge(uint64_t dom, uint64_t key, const char* from,
                    const char* to)
{
    if (edgeDeclared(from, to))
        return;
    report(ReportKind::Invariant,
           std::string("edgedrift:") + from + ":" + to,
           std::string("PteState transition ") + from + " -> " + to +
               " on " + pageName(dom, key) +
               " is not an edge of ap::kPteStateMachine — the auditor "
               "and the declared state machine have drifted");
}

std::string
SimCheck::pageName(uint64_t dom, uint64_t key)
{
    std::ostringstream os;
    os << "page asid=" << tenant::keyAsid(key)
       << " file=" << tenant::keyFile(key)
       << " pageno=" << tenant::keyPageNo(key) << " (domain " << dom
       << ")";
    return os.str();
}

void
SimCheck::auditTenant(uint64_t dom, uint64_t key, int warp,
                      uint16_t tenant, const char* what)
{
    const tenant::TenantId owner = tenant::keyAsid(key);
    if (tenant == owner)
        return;
    report(ReportKind::Invariant,
           std::string("xtenant:") + what + ":" + std::to_string(dom) +
               ":" + std::to_string(key) + ":" + std::to_string(warp),
           std::string("cross-tenant ") + what + ": warp " +
               std::to_string(warp) + " (tenant " + std::to_string(tenant) +
               ") touched " + pageName(dom, key) +
               " owned by tenant " + std::to_string(owner) +
               " — address-space isolation violated");
}

void
SimCheck::pcTeardownTenant(uint64_t dom, uint16_t asid, double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    for (const auto& [id, ps] : pages) {
        if (id.dom != dom || tenant::keyAsid(id.key) != asid)
            continue;
        report(ReportKind::Invariant,
               "tenantresidual:" + std::to_string(dom) + ":" +
                   std::to_string(id.key),
               "tenant " + std::to_string(asid) +
                   " teardown left residual " + pageName(dom, id.key) +
                   " (refcount " + std::to_string(ps.rc) + ", " +
                   std::to_string(ps.links) +
                   " links) in the page cache");
    }
}

SimCheck::PageShadow*
SimCheck::pageShadow(uint64_t dom, uint64_t key)
{
    auto it = pages.find(PageId{dom, key});
    return it == pages.end() ? nullptr : &it->second;
}

void
SimCheck::pcInsert(uint64_t dom, uint64_t key, int64_t rc, int warp,
                   double cycle, uint16_t tenant)
{
    if (!enabled_)
        return;
    (void)cycle;
    if (pageShadow(dom, key)) {
        report(ReportKind::Invariant,
               "dupinsert:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "duplicate page-table insert of " + pageName(dom, key) +
                   " by warp " + std::to_string(warp));
        return;
    }
    auditEdge(dom, key, "Absent", "Loading");
    if (rc > 0)
        auditTenant(dom, key, warp, tenant, "demand insert");
    PageShadow ps;
    ps.rc = rc;
    ps.st = PageShadow::Loading;
    pages.emplace(PageId{dom, key}, ps);
}

void
SimCheck::pcReady(uint64_t dom, uint64_t key, int warp, double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps) {
        report(ReportKind::Invariant,
               "readymiss:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "Ready transition of untracked " + pageName(dom, key));
        return;
    }
    if (ps->st != PageShadow::Loading) {
        report(ReportKind::Invariant,
               "readyedge:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "illegal PteState edge to Ready (not Loading) on " +
                   pageName(dom, key) + " by warp " +
                   std::to_string(warp));
        return;
    }
    auditEdge(dom, key, "Loading", "Ready");
    ps->st = PageShadow::Ready;
}

void
SimCheck::pcFillError(uint64_t dom, uint64_t key, int warp, double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps) {
        report(ReportKind::Invariant,
               "errmiss:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "Error transition of untracked " + pageName(dom, key));
        return;
    }
    if (ps->st != PageShadow::Loading) {
        report(ReportKind::Invariant,
               "erredge:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "illegal PteState edge to Error (not Loading) on " +
                   pageName(dom, key) + " by warp " +
                   std::to_string(warp));
        return;
    }
    auditEdge(dom, key, "Loading", "Error");
    ps->st = PageShadow::Error;
}

void
SimCheck::pcRefAdjust(uint64_t dom, uint64_t key, int64_t delta, int warp,
                      double cycle, uint16_t tenant)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps) {
        report(ReportKind::Invariant,
               "refmiss:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "refcount change on non-resident " + pageName(dom, key) +
                   " by warp " + std::to_string(warp));
        return;
    }
    if (ps->spec && delta > 0) {
        report(ReportKind::Invariant,
               "specref:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "reference taken on speculative " + pageName(dom, key) +
                   " before its demand transition (warp " +
                   std::to_string(warp) +
                   "): the kSpecFlag clear must precede the refcount "
                   "bump");
        return;
    }
    if (ps->rc < 0 || ps->rc + delta < 0) {
        report(ReportKind::Invariant,
               "refneg:" + std::to_string(dom) + ":" + std::to_string(key),
               "refcount of " + pageName(dom, key) + " would go from " +
                   std::to_string(ps->rc) + " to " +
                   std::to_string(ps->rc + delta) +
                   " (below zero outside the claimed -1 state) by warp " +
                   std::to_string(warp));
        return;
    }
    if (delta > 0)
        auditTenant(dom, key, warp, tenant, "reference");
    ps->rc += delta;
}

void
SimCheck::pcClaim(uint64_t dom, uint64_t key, int warp, double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps) {
        report(ReportKind::Invariant,
               "claimmiss:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "eviction claim of non-resident " + pageName(dom, key));
        return;
    }
    if (ps->rc != 0 || (ps->st != PageShadow::Ready &&
                        ps->st != PageShadow::Error)) {
        report(ReportKind::Invariant,
               "claimbad:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "eviction claim of " + pageName(dom, key) +
                   " with refcount " + std::to_string(ps->rc) +
                   " (must be 0 and Ready) by warp " +
                   std::to_string(warp));
        return;
    }
    auditEdge(dom, key, ps->st == PageShadow::Ready ? "Ready" : "Error",
              "Claimed");
    ps->rc = -1;
    ps->st = PageShadow::Claimed;
}

void
SimCheck::pcUnclaim(uint64_t dom, uint64_t key, int warp, double cycle)
{
    if (!enabled_)
        return;
    (void)warp;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps || ps->st != PageShadow::Claimed) {
        report(ReportKind::Invariant,
               "unclaimbad:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "unclaim of " + pageName(dom, key) +
                   " that was not claimed");
        return;
    }
    auditEdge(dom, key, "Claimed", "Ready");
    ps->rc = 0;
    ps->st = PageShadow::Ready;
}

void
SimCheck::pcRemove(uint64_t dom, uint64_t key, int warp, double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps) {
        report(ReportKind::Invariant,
               "rmmiss:" + std::to_string(dom) + ":" + std::to_string(key),
               "eviction of non-resident " + pageName(dom, key));
        return;
    }
    if (ps->st != PageShadow::Claimed) {
        report(ReportKind::Invariant,
               "rmunclaimed:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "eviction of " + pageName(dom, key) +
                   " without a refcount claim (refcount " +
                   std::to_string(ps->rc) + ") by warp " +
                   std::to_string(warp));
    } else if (ps->links != 0) {
        report(ReportKind::Invariant,
               "rmlinked:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "eviction of " + pageName(dom, key) + " with " +
                   std::to_string(ps->links) +
                   " linked apointer lane(s) — cached translations would "
                   "go stale");
    }
    if (ps->st == PageShadow::Claimed)
        auditEdge(dom, key, "Claimed", "Absent");
    pages.erase(PageId{dom, key});
}

void
SimCheck::pcSpeculate(uint64_t dom, uint64_t key, int warp, double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps || ps->st != PageShadow::Loading || ps->rc != 0) {
        report(ReportKind::Invariant,
               "specbad:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "speculative mark on " + pageName(dom, key) +
                   " which is not a refcount-0 Loading entry (warp " +
                   std::to_string(warp) + ")");
        return;
    }
    ps->spec = true;
}

void
SimCheck::pcSpecDemand(uint64_t dom, uint64_t key, int warp, double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps || !ps->spec) {
        report(ReportKind::Invariant,
               "specdemand:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "demand transition of " + pageName(dom, key) +
                   " which carries no speculative mark (warp " +
                   std::to_string(warp) + ")");
        return;
    }
    ps->spec = false;
}

void
SimCheck::pcLink(uint64_t dom, uint64_t key, int64_t n, int warp,
                 double cycle, uint16_t tenant)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (ps && ps->spec) {
        report(ReportKind::Invariant,
               "speclink:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "apointer link against speculative " + pageName(dom, key) +
                   " before its demand transition (warp " +
                   std::to_string(warp) + ")");
        return;
    }
    if (!ps || ps->st != PageShadow::Ready) {
        report(ReportKind::Invariant,
               "linkbad:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "apointer link against " + pageName(dom, key) +
                   " which is not resident-Ready (warp " +
                   std::to_string(warp) + ")");
        return;
    }
    auditTenant(dom, key, warp, tenant, "apointer link");
    ps->links += n;
}

void
SimCheck::pcUnlink(uint64_t dom, uint64_t key, int64_t n, int warp,
                   double cycle)
{
    if (!enabled_)
        return;
    (void)cycle;
    PageShadow* ps = pageShadow(dom, key);
    if (!ps || ps->links < n) {
        report(ReportKind::Invariant,
               "unlinkbad:" + std::to_string(dom) + ":" +
                   std::to_string(key),
               "apointer unlink from " + pageName(dom, key) +
                   " with fewer tracked links than released (warp " +
                   std::to_string(warp) + ")");
        return;
    }
    ps->links -= n;
}

void
SimCheck::auditLeaks()
{
    if (!enabled_)
        return;
    for (const auto& [id, ps] : pages) {
        if (ps.rc == 0 && ps.links == 0)
            continue;
        report(ReportKind::Invariant,
               "leak:" + std::to_string(id.dom) + ":" +
                   std::to_string(id.key),
               "leaked page reference: " + pageName(id.dom, id.key) +
                   " still has refcount " + std::to_string(ps.rc) +
                   " and " + std::to_string(ps.links) +
                   " linked lane(s) at quiescence");
    }
}

void
SimCheck::reportHang(const std::string& who)
{
    if (!enabled_)
        return;
    report(ReportKind::Hang, "hang:" + who,
           who + " permanently blocked: the event queue drained while "
                 "it was still waiting (a completion that never "
                 "arrived, or an unbounded retry)");
}

void
SimCheck::tlbHitSumAudit(uint64_t entry_hits, uint64_t counter_hits,
                         const std::string& who)
{
    if (!enabled_)
        return;
    if (entry_hits == counter_hits)
        return;
    report(ReportKind::Invariant, "tlbhitsum:" + who,
           who + " telemetry hit-sum mismatch: per-entry hit counts "
                 "total " +
               std::to_string(entry_hits) +
               " but the TLB recorded " + std::to_string(counter_hits) +
               " counter hits (an entry's telemetry was lost or "
               "double-counted)");
}

// ----------------------------------------------------------------------
// Reports
// ----------------------------------------------------------------------

void
SimCheck::report(ReportKind kind, const std::string& dedupKey,
                 const std::string& msg)
{
    if (!dedup.insert(dedupKey).second)
        return;
    warn("simcheck [", reportKindName(kind), "] ", msg, " @ cycle ",
         nowCycles());
    if (reports_.size() < kMaxStoredReports)
        reports_.push_back(
            Report{kind, msg, nowCycles(), currentActor()});
    if (failOnReport_)
        panic("simcheck report with fail-on-report enabled: ", msg);
}

size_t
SimCheck::count(ReportKind k) const
{
    size_t n = 0;
    for (const Report& r : reports_)
        if (r.kind == k)
            ++n;
    return n;
}

bool
SimCheck::hasReport(ReportKind k, const std::string& needle) const
{
    for (const Report& r : reports_)
        if (r.kind == k && r.message.find(needle) != std::string::npos)
            return true;
    return false;
}

void
SimCheck::clearReports()
{
    reports_.clear();
    dedup.clear();
}

} // namespace ap::sim::check
