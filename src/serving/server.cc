#include "serving/serving.hh"

#include <cmath>
#include <deque>
#include <queue>

#include "tenant/tenant.hh"
#include "util/logging.hh"
#include "workloads/workloads.hh"

namespace ap::serving {

namespace {

/** One request's lifetime bookkeeping (host-side only). */
struct Request
{
    double arrival = 0;
    double claimed = 0;
    uint32_t client = 0;
    uint32_t block = 0;     ///< collage query block
    bool isScan = false;
    uint64_t scanOff = 0;
    uint32_t scanBytes = 0; ///< this request's scan length
    double scanExpect = 0;  ///< exact host-side scan checksum
    uint32_t tclass = 0;    ///< traffic-class index (0 single-tenant)
    uint16_t asid = 0;      ///< ASID the serving warp binds to
};

/** Host-side reference for workloads::scanQuery, in the same
 * iteration-major, lane-minor accumulation order — exact equality. */
double
scanExpected(uint64_t offset, uint32_t bytes)
{
    uint32_t count = bytes / 4;
    double acc = 0;
    for (uint32_t i = 0; i < count; ++i)
        acc += scanValue(offset / 4 + i);
    return acc;
}

/**
 * The host-side request scheduler the worker warps poll. Single
 * threaded by construction (warp fibers run one at a time), so no
 * locking; determinism comes from the engine's deterministic fiber
 * schedule plus seeded RNG draws in creation order.
 *
 * Admission control happens in two places:
 *  - admit(): an arrival finding the pending queue at queueCap is
 *    shed immediately (the overload signal a real frontend returns
 *    to its client) — in closed loop the client thinks and retries
 *    with a fresh request;
 *  - next(): a claim is deferred while the in-flight window is full
 *    or the host-IO queue is deeper than ioDepthCap, bounding how
 *    much concurrent fault traffic serving can pile onto the DMA
 *    engine.
 */
class Scheduler
{
  public:
    enum class Action { Serve, Wait, Done };

    struct Decision
    {
        Action action = Action::Done;
        uint32_t req = 0;
        double until = 0;
    };

    /**
     * @param traffic the run's traffic classes: cfg.tenants paired
     *        with their registered ASIDs, or one synthetic class from
     *        the legacy single-tenant knobs (ASID 0)
     */
    Scheduler(const ServingConfig& cfg, const ServingWorkload& wl,
              uint32_t workers, StatGroup& stats,
              std::vector<TenantTraffic> traffic,
              const std::vector<uint16_t>& asids)
        : cfg_(cfg), wl_(&wl), stats_(stats),
          rng_(cfg.seed ^ 0x53455256ULL),
          maxInFlight_(cfg.maxInFlight ? cfg.maxInFlight : workers),
          perTenantStats_(cfg.tenants.size() > 0)
    {
        AP_ASSERT(traffic.size() == asids.size() && !traffic.empty(),
                  "one ASID per traffic class");
        for (size_t i = 0; i < traffic.size(); ++i) {
            TrafficClass tc;
            tc.t = traffic[i];
            tc.asid = asids[i];
            tc.e2eName =
                "serving.t" + std::to_string(asids[i]) + ".e2e";
            AP_ASSERT(tc.t.clients > 0 && tc.t.requests > 0,
                      "a serving tenant needs clients and requests");
            totalRequests_ += tc.t.requests;
            classes_.push_back(std::move(tc));
        }
        // classes_ is final, so the names stay put under the handles.
        for (const TrafficClass& tc : classes_)
            tenantE2e_.emplace_back(stats, tc.e2eName.c_str());
        reqs_.reserve(totalRequests_);
        if (cfg_.arrival == Arrival::Closed) {
            for (uint32_t x = 0; x < classes_.size(); ++x) {
                const TenantTraffic& t = classes_[x].t;
                uint32_t first = std::min(t.clients, t.requests);
                for (uint32_t c = 0; c < first; ++c)
                    spawn(x, c,
                          t.startCycles
                              + expSample(rng_, t.meanThinkCycles));
            }
        } else {
            AP_ASSERT(classes_.size() == 1,
                      "multi-tenant serving is closed-loop only");
            const TenantTraffic& t = classes_[0].t;
            auto times = openLoopArrivals(cfg_.arrival, cfg_.arrivals,
                                          t.requests, cfg_.seed);
            for (uint32_t i = 0; i < t.requests; ++i)
                spawn(0, i % t.clients, times[i]);
        }
    }

    /** The worker warp's poll: claim a request, wait, or finish. */
    Decision
    next(double now, size_t io_depth)
    {
        admit(now);
        if (done())
            return Decision{Action::Done, 0, 0};
        if (!queue_.empty() && inFlight_ < maxInFlight_) {
            if (cfg_.ioDepthCap && io_depth > cfg_.ioDepthCap) {
                deferrals_++;
                stats_.ioDeferrals.inc();
                return wait(now + cfg_.pollCycles, now);
            }
            uint32_t id = queue_.front();
            queue_.pop_front();
            inFlight_++;
            reqs_[id].claimed = now;
            stats_.queueWait.record(now - reqs_[id].arrival);
            return Decision{Action::Serve, id, 0};
        }
        double until = now + cfg_.pollCycles;
        if (queue_.empty() && !future_.empty())
            until = future_.top().first;
        return wait(until, now);
    }

    /** Mark @p id finished at @p now; closed loop spawns the client's
     * next request after a think time. */
    void
    complete(uint32_t id, double now)
    {
        inFlight_--;
        completed_++;
        TrafficClass& tc = classes_[reqs_[id].tclass];
        tc.completed++;
        stats_.completed.inc();
        stats_.e2e.record(now - reqs_[id].arrival);
        stats_.service.record(now - reqs_[id].claimed);
        if (perTenantStats_)
            tenantE2e_[reqs_[id].tclass].record(now - reqs_[id].arrival);
        respawn(reqs_[id].tclass, reqs_[id].client, now);
    }

    const Request& request(uint32_t id) const { return reqs_[id]; }
    uint32_t completed() const { return completed_; }
    uint32_t completedOf(uint32_t tclass) const
    {
        return classes_[tclass].completed;
    }
    uint32_t shedCount() const { return shed_; }
    uint64_t deferrals() const { return deferrals_; }

  private:
    /** One tenant's traffic class plus its run-time spawn state. */
    struct TrafficClass
    {
        TenantTraffic t;
        uint16_t asid = 0;
        std::string e2eName; ///< serving.t<asid>.e2e
        uint32_t spawned = 0;
        uint32_t completed = 0;
    };

    /** All resolved: nothing pending, queued, or yet to be spawned. */
    bool done() const { return completed_ + shed_ == totalRequests_; }

    static Decision
    wait(double until, double now)
    {
        return Decision{Action::Wait, 0, std::max(until, now + 1.0)};
    }

    /** Create class @p tclass's next request for @p client at @p at. */
    void
    spawn(uint32_t tclass, uint32_t client, double at)
    {
        TrafficClass& tc = classes_[tclass];
        Request r;
        r.tclass = tclass;
        r.asid = tc.asid;
        r.client = client;
        r.arrival = at;
        r.block = static_cast<uint32_t>(
            rng_.nextBounded(wl_->queries.numBlocks));
        if (tc.t.scanEvery &&
            tc.spawned % tc.t.scanEvery == tc.t.scanEvery - 1) {
            r.isScan = true;
            r.scanBytes = tc.t.scanBytes;
            // The class's window bounds the offsets: a small window
            // keeps the tenant's working set cache-resident, the
            // whole file makes it a streaming antagonist.
            uint64_t window = wl_->scanFileBytes;
            bool wide = tc.t.scanWideEvery &&
                        tc.spawned % tc.t.scanWideEvery ==
                            tc.t.scanWideEvery - 1;
            if (tc.t.scanWindowBytes && !wide)
                window = std::min<uint64_t>(tc.t.scanWindowBytes,
                                            window);
            uint64_t pages = (window - tc.t.scanBytes) / 4096;
            if (tc.t.scanSweep && !wide)
                r.scanOff = (tc.spawned % (pages + 1)) * 4096;
            else
                r.scanOff = rng_.nextBounded(pages + 1) * 4096;
            r.scanExpect = scanExpected(r.scanOff, tc.t.scanBytes);
        }
        tc.spawned++;
        uint32_t id = static_cast<uint32_t>(reqs_.size());
        reqs_.push_back(r);
        future_.emplace(at, id);
    }

    /** Closed loop: the client thinks, then issues its next request
     * (until its class's request budget is spawned). */
    void
    respawn(uint32_t tclass, uint32_t client, double now)
    {
        if (cfg_.arrival != Arrival::Closed)
            return;
        TrafficClass& tc = classes_[tclass];
        if (tc.spawned < tc.t.requests)
            spawn(tclass, client,
                  now + expSample(rng_, tc.t.meanThinkCycles));
    }

    /** Move every due arrival into the pending queue, shedding the
     * overflow beyond queueCap. */
    void
    admit(double now)
    {
        while (!future_.empty() && future_.top().first <= now) {
            uint32_t id = future_.top().second;
            future_.pop();
            if (cfg_.queueCap && queue_.size() >= cfg_.queueCap) {
                shed_++;
                stats_.shed.inc();
                respawn(reqs_[id].tclass, reqs_[id].client, now);
            } else {
                queue_.push_back(id);
            }
        }
    }

    /** Handles on the serving.* stats charged per request. */
    struct Stats
    {
        explicit Stats(StatGroup& s)
            : completed(s, "serving.completed"), shed(s, "serving.shed"),
              ioDeferrals(s, "serving.io_deferrals"),
              queueWait(s, "serving.queue_wait"), e2e(s, "serving.e2e"),
              service(s, "serving.service")
        {
        }

        StatGroup::Counter completed;
        StatGroup::Counter shed;
        StatGroup::Counter ioDeferrals;
        StatGroup::Hist queueWait;
        StatGroup::Hist e2e;
        StatGroup::Hist service;
    };

    ServingConfig cfg_;
    const ServingWorkload* wl_;
    Stats stats_;
    SplitMix64 rng_;
    uint32_t maxInFlight_;
    bool perTenantStats_;
    std::vector<TrafficClass> classes_;
    /** Each class's e2e histogram, on its e2eName (multi-tenant). */
    std::vector<StatGroup::Hist> tenantE2e_;
    uint32_t totalRequests_ = 0;

    std::vector<Request> reqs_;
    /** (arrival time, request id) min-heap of not-yet-due requests. */
    std::priority_queue<std::pair<double, uint32_t>,
                        std::vector<std::pair<double, uint32_t>>,
                        std::greater<>>
        future_;
    std::deque<uint32_t> queue_;
    uint32_t inFlight_ = 0;
    uint32_t completed_ = 0;
    uint32_t shed_ = 0;
    uint64_t deferrals_ = 0;
};

} // namespace

ServingWorkload
makeWorkload(hostio::BackingStore& bs, const collage::Dataset& ds,
             uint32_t query_blocks, uint64_t seed)
{
    ServingWorkload wl;
    collage::InputParams ip;
    ip.numBlocks = query_blocks;
    ip.reuse = 4.0;
    ip.seed = seed;
    wl.queries = collage::makeInput(ds, ip);

    wl.expected.resize(query_blocks);
    std::vector<float> hist(collage::kBins);
    for (uint32_t b = 0; b < query_blocks; ++b) {
        collage::blockHistogram(
            wl.queries.pixels.data() +
                static_cast<size_t>(b) * collage::kBlockPixels,
            hist.data());
        wl.expected[b] = collage::bestCandidate(
            ds, hist.data(), collage::candidatesOf(ds, hist.data()));
    }

    wl.scanFileBytes = uint64_t(4) << 20;
    wl.scanFile = bs.create("serving_scan.bin", wl.scanFileBytes);
    std::vector<float> page(4096 / 4);
    for (uint64_t off = 0; off < wl.scanFileBytes; off += 4096) {
        for (uint32_t k = 0; k < page.size(); ++k)
            page[k] = scanValue(off / 4 + k);
        bs.pwrite(wl.scanFile, page.data(), 4096, off);
    }
    return wl;
}

ServingResult
serve(core::GvmRuntime& rt, const collage::Dataset& ds,
      const ServingWorkload& wl, const ServingConfig& cfg)
{
    sim::Device& dev = rt.fs().device();
    hostio::HostIoEngine& io = rt.fs().io();
    const sim::CostModel& cm = dev.costModel();
    StatGroup& stats = dev.stats();

    collage::DeviceInput d =
        collage::uploadInput(dev, ds, wl.queries, /*with_index=*/true);
    uint32_t workers =
        static_cast<uint32_t>(cfg.numBlocks) * cfg.warpsPerBlock;

    // Multi-tenant mode: register each traffic class for an ASID and
    // (with isolation on) attach the registry to the page cache and
    // the host-IO engine. Single-tenant runs register nothing and one
    // synthetic traffic class carries the legacy knobs under ASID 0.
    const bool mt = !cfg.tenants.empty();
    tenant::TenantRegistry registry;
    std::vector<TenantTraffic> traffic;
    std::vector<uint16_t> asids;
    uint16_t collage_asid = tenant::kDefaultTenant;
    if (mt) {
        uint32_t collage_classes = 0;
        for (const TenantTraffic& t : cfg.tenants) {
            tenant::TenantSpec spec;
            spec.name = t.name;
            spec.cacheWeight = t.cacheWeight;
            spec.ioWeight = t.ioWeight;
            tenant::RegisterResult rr = registry.registerTenant(spec);
            AP_ASSERT(rr.ok(), "tenant registration failed: ",
                      tenant::tenantStatusName(rr.status));
            traffic.push_back(t);
            asids.push_back(rr.id);
            if (t.scanEvery != 1) {
                // This class issues collage queries; the per-warp
                // QueryContext maps its apointers under one ASID, so
                // only one class may share it.
                collage_classes++;
                collage_asid = rr.id;
            }
        }
        AP_ASSERT(collage_classes <= 1,
                  "at most one tenant may issue collage queries");
        if (cfg.qosIsolation) {
            rt.fs().cache().setTenantRegistry(&registry);
            io.setTenantRegistry(&registry);
        }
    } else {
        TenantTraffic t;
        t.name = "default";
        t.clients = cfg.clients;
        t.requests = cfg.requests;
        t.meanThinkCycles = cfg.meanThinkCycles;
        t.scanEvery = cfg.scanEvery;
        t.scanBytes = cfg.scanBytes;
        traffic.push_back(t);
        asids.push_back(tenant::kDefaultTenant);
    }
    Scheduler sched(cfg, wl, workers, stats, std::move(traffic), asids);

    uint32_t val_errors = 0;
    sim::Cycles kernel = dev.launch(
        cfg.numBlocks, cfg.warpsPerBlock, [&](sim::Warp& w) {
            // The QueryContext's apointers live for the whole kernel,
            // so they belong to the (single) collage tenant.
            w.setTenant(collage_asid);
            collage::QueryContext qc(w, rt, ds);
            for (;;) {
                Scheduler::Decision dec =
                    sched.next(w.now(), io.queueDepth());
                if (dec.action == Scheduler::Action::Done)
                    break;
                if (dec.action == Scheduler::Action::Wait) {
                    w.waitUntil(dec.until);
                    continue;
                }
                const Request& rq = sched.request(dec.req);
                // Worker warps are a shared pool: each request runs
                // under its owner's address space.
                w.setTenant(rq.asid);
                if (rq.isScan) {
                    double sum = workloads::scanQuery(
                        w, rt, wl.scanFile, wl.scanFileBytes, rq.scanOff,
                        rq.scanBytes);
                    if (sum != rq.scanExpect)
                        val_errors++;
                } else {
                    uint32_t winner = qc.serve(w, d, rq.block);
                    if (!wl.expected.empty() &&
                        winner != wl.expected[rq.block])
                        val_errors++;
                }
                sched.complete(dec.req, w.now());
            }
            w.setTenant(collage_asid);
            qc.destroy(w);
        });

    ServingResult r;
    r.elapsed = d.uploadCycles + kernel;
    r.completed = sched.completed();
    r.shed = sched.shedCount();
    r.ioDeferrals = sched.deferrals();
    r.validationErrors = val_errors;
    if (val_errors)
        stats.inc("serving.validation_errors", val_errors);
    double secs = cm.toSeconds(r.elapsed);
    r.qps = secs > 0 ? r.completed / secs : 0;
    if (const Histogram* h = stats.findHistogram("serving.e2e")) {
        r.e2eP50 = h->quantile(0.50);
        r.e2eP95 = h->quantile(0.95);
        r.e2eP99 = h->quantile(0.99);
        r.e2eMean = h->mean();
        r.e2eMax = h->max();
    }
    if (const Histogram* h = stats.findHistogram("serving.queue_wait"))
        r.queueWaitP95 = h->quantile(0.95);
    if (const Histogram* h = stats.findHistogram("serving.service"))
        r.serviceP50 = h->quantile(0.50);
    r.majorFaults = stats.counter("gpufs.major_faults");
    r.batchedRequests = stats.counter("hostio.batched_requests");

    if (mt) {
        for (size_t i = 0; i < cfg.tenants.size(); ++i) {
            TenantResult tr;
            tr.name = cfg.tenants[i].name;
            tr.asid = asids[i];
            tr.completed = sched.completedOf(static_cast<uint32_t>(i));
            std::string spfx =
                "serving.t" + std::to_string(asids[i]) + ".";
            if (const Histogram* h =
                    stats.findHistogram(spfx + "e2e")) {
                tr.e2eP50 = h->quantile(0.50);
                tr.e2eP95 = h->quantile(0.95);
                tr.e2eP99 = h->quantile(0.99);
            }
            const std::string& tpfx = registry.statPrefix(asids[i]);
            tr.majorFaults = stats.counter(tpfx + "major_faults");
            tr.ioBytes = stats.counter(tpfx + "io_bytes");
            r.tenants.push_back(std::move(tr));
        }
        // Tear every tenant down: the TLB audit, the page-cache scrub
        // and the ASID release must all succeed now that the kernel
        // has quiesced — a Busy here is a leaked reference.
        for (uint16_t a : asids) {
            tenant::TenantStatus st = rt.teardownTenant(registry, a);
            if (st != tenant::TenantStatus::Ok) {
                r.teardownOk = false;
                stats.inc("serving.teardown_failures");
            }
        }
        if (cfg.qosIsolation) {
            rt.fs().cache().setTenantRegistry(nullptr);
            io.setTenantRegistry(nullptr);
        }
    }
    return r;
}

} // namespace ap::serving
