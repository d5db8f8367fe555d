#include "hostio/host_io_engine.hh"

#include <algorithm>
#include <limits>

#include "sim/check/simcheck.hh"
#include "util/logging.hh"

namespace ap::hostio {

namespace {

/**
 * Resume a fiber directly from a host completion. Bypasses
 * Engine::scheduleFiber, so the host -> fiber synchronization edge must
 * be drawn by hand before the switch.
 */
void
resumeWithEdge(sim::Fiber* f)
{
    if (sim::check::SimCheck::armed) {
        auto& sc = sim::check::SimCheck::get();
        sc.edgeToFiber(f);
        sc.fiberResuming(f);
    }
    f->resume();
}

/** DRR credit with no tenant registry: any group the split allows. */
constexpr uint64_t kUnboundedCredit = std::numeric_limits<uint64_t>::max();

} // namespace

HostIoEngine::Stats::Stats(StatGroup& s)
    : readRequests(s, "hostio.read_requests"),
      writeRequests(s, "hostio.write_requests"),
      readBytes(s, "hostio.read_bytes"), writeBytes(s, "hostio.write_bytes"),
      lowPriority(s, "hostio.low_priority_requests"),
      transfers(s, "hostio.transfers"),
      batchedRequests(s, "hostio.batched_requests"),
      qosDispatches(s, "hostio.qos_dispatches"),
      retries(s, "hostio.retries"),
      injectedFaults(s, "hostio.injected_faults"),
      injectedDelays(s, "hostio.injected_delays"), rpcs(s, "hostio.rpcs")
{
}

HostIoEngine::HostIoEngine(sim::Device& dev_, BackingStore& store)
    : dev(&dev_), store_(&store),
      pcieToGpu(dev_.costModel().pcieBytesPerCycle),
      pcieToHost(dev_.costModel().pcieBytesPerCycle), stats_(dev_.stats())
{
}

sim::Cycles
HostIoEngine::backoff(int attempt) const
{
    sim::Cycles b = retry.backoffBase;
    for (int i = 0; i < attempt && b < retry.backoffCap; ++i)
        b *= 2;
    return std::min(b, retry.backoffCap);
}

sim::Cycles
HostIoEngine::injectedDelay(const Request& r)
{
    if (!injector)
        return 0;
    sim::Cycles d = injector->completionDelay(r.file, r.off, r.attempt);
    if (d > 0)
        stats_.injectedDelays.inc();
    return d;
}

IoStatus
HostIoEngine::readToGpu(sim::Warp& w, FileId f, uint64_t off, size_t len,
                        sim::Addr gpu_dst)
{
    return startAndWait(w, Request{f, off, len, gpu_dst, nullptr, false,
                                   false, 0, w.activeFault(),
                                   w.tenant()});
}

IoStatus
HostIoEngine::readToGpuAsync(sim::Warp& w, FileId f, uint64_t off,
                             size_t len, sim::Addr gpu_dst,
                             std::function<void(IoStatus)> on_done,
                             bool low_priority)
{
    return start(w, Request{f, off, len, gpu_dst, std::move(on_done),
                            false, low_priority, 0, w.activeFault(),
                            w.tenant()});
}

IoStatus
HostIoEngine::writeFromGpu(sim::Warp& w, FileId f, uint64_t off, size_t len,
                           sim::Addr gpu_src)
{
    // Fault id 0: a writeback issued inside a major fault must not
    // stamp that fault's transfer stages. Writes are never batched.
    return startAndWait(w, Request{f, off, len, gpu_src, nullptr, true,
                                   false, 0, 0, w.tenant()});
}

IoStatus
HostIoEngine::start(sim::Warp& w, Request r)
{
    IoStatus v = store_->checkRange(r.file, r.off, r.len);
    if (v != IoStatus::Ok) {
        dev->stats().inc("hostio.failures");
        return v;
    }
    (r.write ? stats_.writeRequests : stats_.readRequests).inc();
    (r.write ? stats_.writeBytes : stats_.readBytes).inc(r.len);
    if (r.low)
        stats_.lowPriority.inc();
    // Enqueue the request into the host RPC ring (a few stores over
    // PCIe-visible memory plus a doorbell).
    w.issue(8);
    submit(std::move(r));
    return IoStatus::Ok;
}

IoStatus
HostIoEngine::startAndWait(sim::Warp& w, Request r)
{
    IoStatus st = IoStatus::Ok;
    sim::Fiber* self = sim::Fiber::current();
    r.onDone = [&st, self](IoStatus s) {
        st = s;
        resumeWithEdge(self);
    };
    IoStatus v = start(w, std::move(r));
    if (v != IoStatus::Ok)
        return v;
    dev->engine().block();
    return st;
}

void
HostIoEngine::submit(Request r)
{
    sim::Engine& eng = dev->engine();
    // First submission keeps this stamp; retries re-stamp the transfer
    // marks only, so queue_wait absorbs the backoff.
    dev->faultPath().stamp(r.fid, sim::FaultStage::Enqueue, eng.now());
    if (batching && !r.write) {
        enqueueBatched(std::move(r));
        return;
    }
    // Writes, and reads with batching off, ship alone: each pays the
    // full DMA setup.
    const size_t bytes = r.len;
    std::vector<Request> one;
    one.push_back(std::move(r));
    ship(std::move(one), bytes,
         eng.now() + dev->costModel().hostRequestCost);
}

sim::Cycles
HostIoEngine::ship(std::vector<Request> group, size_t bytes,
                   sim::Cycles host_free)
{
    sim::BwServer& bus = group.front().write ? pcieToHost : pcieToGpu;
    const sim::Cycles done =
        bus.acquireWithSetup(host_free, static_cast<double>(bytes),
                             dev->costModel().pcieLatency);
    // An injected delay on any member holds up the whole DMA (the
    // group completes as one transaction).
    sim::Cycles delay = 0;
    for (const Request& r : group) {
        dev->faultPath().stamp(r.fid, sim::FaultStage::TransferStart,
                               host_free);
        delay = std::max(delay, injectedDelay(r));
    }
    // Writes occupy the host daemon and the bus like reads do, so both
    // count toward queueDepth() while the DMA is in flight: the
    // readahead throttle must see writeback pressure too.
    inflight += group.size();
    // The transfer is counted when the DMA lands, batched or not.
    dev->engine().schedule(done + delay, [this, group = std::move(group)] {
        stats_.transfers.inc();
        inflight -= group.size();
        for (const Request& r : group) {
            dev->faultPath().stamp(r.fid, sim::FaultStage::TransferEnd,
                                   dev->engine().now());
            complete(r);
        }
    });
    return done;
}

void
HostIoEngine::complete(const Request& r)
{
    Fault fl = Fault::None;
    if (injector)
        fl = r.write ? injector->onWrite(r.file, r.off, r.len, r.attempt)
                     : injector->onRead(r.file, r.off, r.len, r.attempt);
    if (fl != Fault::None) {
        stats_.injectedFaults.inc();
        finish(r, fl == Fault::Transient ? IoStatus::Again
                                         : IoStatus::IoError);
        return;
    }
    // The DMA is a host-actor access of device memory: a read of the
    // source for a write, a write of the destination for a read.
    if (sim::check::SimCheck::armed) {
        auto& sc = sim::check::SimCheck::get();
        const uint32_t mem = dev->mem().checkMemId;
        if (r.write)
            sc.onRead(mem, r.addr, r.len);
        else
            sc.onWrite(mem, r.addr, r.len);
    }
    uint8_t* buf = dev->mem().raw(r.addr, r.len);
    finish(r, r.write ? store_->pwriteChecked(r.file, buf, r.len, r.off)
                      : store_->preadChecked(r.file, buf, r.len, r.off));
}

void
HostIoEngine::finish(const Request& r, IoStatus st)
{
    if (st == IoStatus::Again) {
        if (r.attempt + 1 < retry.maxAttempts) {
            // Back off (capped exponential) and re-submit alone, so a
            // poisoned attempt leaves the batch it rode in on.
            stats_.retries.inc();
            dev->faultPath().attempt(r.fid);
            sim::Engine& eng = dev->engine();
            Request nr = r;
            nr.attempt++;
            eng.schedule(eng.now() + backoff(r.attempt),
                         [this, nr = std::move(nr)]() mutable {
                             submit(std::move(nr));
                         });
            return;
        }
        st = IoStatus::IoError;
    }
    if (st != IoStatus::Ok)
        dev->stats().inc("hostio.failures");
    r.onDone(st);
}

void
HostIoEngine::enqueueBatched(Request r)
{
    // One queue per tenant while a registry is attached; without one,
    // every batched read waits in the default tenant's queue.
    TenantQueue& q = queues[registry_ ? r.asid : tenant::kDefaultTenant];
    (r.low ? q.spec : q.demand).push_back(std::move(r));
    ++queued;
    // The dispatch event may already be scheduled by an earlier
    // requester; publish this requester's clock into the host channel
    // so the batch that carries its DMA is ordered after it.
    if (sim::check::SimCheck::armed)
        sim::check::SimCheck::get().hostRelease();
    armDispatch();
}

void
HostIoEngine::armDispatch()
{
    if (dispatchScheduled || queued == 0)
        return;
    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();
    dispatchScheduled = true;
    // Work-conserving aggregation: while a transfer is in flight,
    // keep accumulating requests and dispatch them as one batch
    // when the DMA channel frees up (the GPUfs host daemon drains
    // its whole RPC queue per iteration).
    sim::Cycles when = std::max(eng.now() + cm.hostBatchWindow,
                                pcieToGpu.freeTime());
    eng.schedule(when, [this] { dispatch(); });
}

uint64_t
HostIoEngine::quantumFor(tenant::TenantId asid) const
{
    if (!registry_)
        return kUnboundedCredit;
    constexpr uint64_t kQuantumBytes = 16384; // per IO-weight unit
    constexpr uint64_t kFloorBytes = 4096;    // zero weight: one page
    uint32_t w = registry_->ioWeightOf(asid);
    return w == 0 ? kFloorBytes : w * kQuantumBytes;
}

void
HostIoEngine::dispatch()
{
    dispatchScheduled = false;
    AP_ASSERT(queued > 0, "dispatch event with no batched read queued");
    const sim::CostModel& cm = dev->costModel();

    // Select the queue to serve: visit queues in ASID round-robin
    // order from the cursor, crediting one quantum per visit, until a
    // queue's deficit covers its head request. Deficits persist across
    // visits, so a large request accumulates credit over rounds and
    // every tenant (floor included) eventually dispatches — the loop
    // terminates because each visit strictly grows some deficit.
    // Unbounded credit never overflows: its visit drains the queue,
    // which zeroes the deficit before the next credit.
    auto it = queues.lower_bound(rrCursor);
    uint64_t quantum = 0;
    for (;; ++it) {
        if (it == queues.end())
            it = queues.begin();
        TenantQueue& q = it->second;
        if (q.empty())
            continue;
        quantum = quantumFor(it->first);
        q.deficit += quantum;
        rrCursor = static_cast<tenant::TenantId>(it->first + 1);
        if (q.deficit >= q.front().len)
            break;
    }
    const tenant::TenantId asid = it->first;
    TenantQueue& q = it->second;

    // Ship from this queue, demand before speculation, each transfer
    // bounded by both the DMA split size and the credit. The host
    // gathers each group into its staging buffer, then issues one DMA
    // for it: one setup cost per group.
    sim::Cycles host_free = dev->engine().now();
    do {
        std::vector<Request> group;
        size_t bytes = 0;
        auto take = [&](std::deque<Request>& dq) {
            while (!dq.empty()) {
                size_t len = dq.front().len;
                if (!group.empty() && bytes + len > cm.maxBatchBytes)
                    break;
                if (bytes + len > q.deficit)
                    break;
                bytes += len;
                group.push_back(std::move(dq.front()));
                dq.pop_front();
            }
        };
        take(q.demand);
        take(q.spec);
        AP_ASSERT(!group.empty(), "DRR selected a queue it cannot serve");
        q.deficit -= bytes;
        queued -= group.size();

        const size_t n = group.size();
        host_free += static_cast<double>(n) * cm.hostRequestCost;
        stats_.batchedRequests.inc(n);
        if (registry_) {
            stats_.qosDispatches.inc();
            StatGroup& st = dev->stats();
            const std::string& pfx = registry_->statPrefix(asid);
            st.inc(pfx + "io_requests", n);
            st.inc(pfx + "io_bytes", bytes);
        }
        sim::Cycles done = ship(std::move(group), bytes, host_free);
        sim::Tracer& tr = dev->tracer();
        if (tr.enabled()) {
            sim::Tracer::Args args{{"requests", static_cast<double>(n)},
                                   {"bytes", static_cast<double>(bytes)}};
            std::string who = "batch";
            if (registry_) {
                who = "qos t" + std::to_string(asid);
                args.emplace_back("tenant", static_cast<double>(asid));
            }
            tr.span(sim::kHostIoTrack, "dma",
                    who + " x" + std::to_string(n) + " (" +
                        std::to_string(bytes) + "B)",
                    host_free, done, std::move(args));
        }
    } while (quantum == kUnboundedCredit && !q.empty());
    if (q.empty())
        q.deficit = 0; // no banking credit while idle (classic DRR)

    // A finite quantum ships one transfer per event: the next round is
    // a fresh event ordered behind this DMA, which is what lets
    // another tenant's requests interleave instead of convoying behind
    // this one.
    armDispatch();
}

int64_t
HostIoEngine::rpc(sim::Warp& w, const std::function<int64_t()>& host_fn)
{
    const sim::CostModel& cm = dev->costModel();
    sim::Engine& eng = dev->engine();
    stats_.rpcs.inc();
    w.issue(8);

    int64_t result = 0;
    sim::Fiber* waiter = sim::Fiber::current();
    sim::Cycles done =
        eng.now() + 2 * cm.pcieLatency + cm.hostRequestCost;
    eng.schedule(done, [&result, &host_fn, waiter] {
        result = host_fn();
        resumeWithEdge(waiter);
    });
    eng.block();
    return result;
}

} // namespace ap::hostio
