/**
 * @file
 * The host I/O engine: models the GPUfs host-side daemon that services
 * file RPCs from running GPU kernels, the PCIe bus, and the transfer
 * batching optimization from paper section V ("Optimizing for small
 * page size"): multiple outstanding small reads are aggregated on the
 * host and shipped to the GPU in a single DMA transfer.
 *
 * Every transfer, read or write, blocking or asynchronous, takes one
 * path: start (range check, counters, doorbell) -> submit (queue for
 * the batching dispatcher, or ship alone) -> ship (one DMA for a
 * group) -> complete (injector verdict, then the host read or write)
 * -> finish. One deficit round-robin dispatcher forms every batch;
 * with no tenant registry it runs one queue with unbounded credit.
 * A blocking call is the asynchronous one plus a callback that resumes
 * the waiting fiber.
 *
 * Failure semantics (DESIGN.md section 10): every transfer validates
 * its byte range up front and returns an IoStatus instead of
 * asserting. An attached FaultInjector can fail or delay individual
 * transfer attempts; finish() retries transient failures with capped
 * exponential backoff, tracked per request so one poisoned request
 * cannot wedge the batch it rode in on.
 */

#ifndef AP_HOSTIO_HOST_IO_ENGINE_HH
#define AP_HOSTIO_HOST_IO_ENGINE_HH

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "hostio/backing_store.hh"
#include "hostio/fault_injector.hh"
#include "hostio/io_result.hh"
#include "sim/device.hh"
#include "tenant/tenant.hh"
#include "util/annotations.hh"
#include "util/logging.hh"

namespace ap::hostio {

/**
 * Services device-originated file reads/writes. Calls are made from
 * inside warp fibers and block the calling warp until the data has
 * crossed the (simulated) PCIe bus or the transfer has failed for
 * good.
 */
class HostIoEngine
{
  public:
    /** Retry policy for failed transfer attempts. */
    struct RetryPolicy
    {
        /** Total attempts per request (first try included). */
        int maxAttempts = 6;
        /** Backoff before retry k is backoffBase << k, capped below. */
        sim::Cycles backoffBase = 2000;
        sim::Cycles backoffCap = 64000;
    };

    /**
     * @param dev   the simulated GPU (shares its engine and memory)
     * @param store the host file system
     */
    HostIoEngine(sim::Device& dev, BackingStore& store);

    /**
     * Read (f, off, len) from the host into device memory at @p gpu_dst.
     * Blocks the calling warp until the bytes have landed or the
     * request has failed terminally. With batching enabled, concurrent
     * requests within the aggregation window share one PCIe transfer.
     * @return Ok, BadFile/Eof for an invalid range, or IoError after
     *         retries are exhausted
     */
    IoStatus readToGpu(sim::Warp& w, FileId f, uint64_t off, size_t len,
                       sim::Addr gpu_dst) AP_YIELDS AP_MUST_CHECK;

    /**
     * Asynchronous variant of readToGpu: enqueue the request (sharing
     * the batching machinery) and invoke @p on_done with the terminal
     * status at the simulated completion time instead of blocking the
     * warp. Transient failures are retried engine-side before @p
     * on_done fires. Used by the prefetch (gmadvise) path.
     * @param low_priority speculative traffic (readahead): within an
     *        aggregation window, demand requests dispatch first, so a
     *        burst of speculation never delays a demand DMA that
     *        arrived in the same batch
     * @return Ok if the request was enqueued (the callback will fire
     *         exactly once), or a validation error (callback never
     *         fires)
     */
    IoStatus readToGpuAsync(sim::Warp& w, FileId f, uint64_t off,
                            size_t len, sim::Addr gpu_dst,
                            std::function<void(IoStatus)> on_done,
                            bool low_priority = false) AP_MUST_CHECK;

    /**
     * Write device memory (gpu_src, len) to the host file at (f, off).
     * Blocks the calling warp until the transfer completes or fails
     * terminally.
     */
    IoStatus writeFromGpu(sim::Warp& w, FileId f, uint64_t off,
                          size_t len, sim::Addr gpu_src)
        AP_YIELDS AP_MUST_CHECK;

    /**
     * A device-to-host RPC with a tiny payload (e.g. gopen): charges a
     * round trip and runs @p host_fn on the host at the service time.
     * Control RPCs are assumed reliable; the injector only affects
     * data transfers.
     * @return the value produced by @p host_fn
     */
    int64_t rpc(sim::Warp& w, const std::function<int64_t()>& host_fn)
        AP_YIELDS;

    /** Enable/disable batching (on by default; the ablation knob). */
    void setBatching(bool on) { batching = on; }

    /** Attach a fault injector (null detaches; not owned). */
    void setFaultInjector(FaultInjector* fi) { injector = fi; }

    /** The attached fault injector, or null. */
    FaultInjector* faultInjector() { return injector; }

    /** Replace the retry policy. */
    void setRetryPolicy(const RetryPolicy& p) { retry = p; }

    /** The backing store served by this engine. */
    BackingStore& store() { return *store_; }

    /**
     * Attach the tenant registry (null detaches; not owned). While
     * attached, each tenant's batched reads wait in their own queue and
     * earn deficit round-robin credit by the registry's IO weights;
     * without it every batched read waits in one queue with unbounded
     * credit, which each dispatch event drains. Attach only while no
     * batched reads are queued.
     */
    void setTenantRegistry(tenant::TenantRegistry* reg)
    {
        AP_ASSERT(queued == 0, "tenant registry attached while ", queued,
                  " batched reads are queued");
        registry_ = reg;
    }

    /**
     * Host-side congestion probe: transfers not yet delivered —
     * batched reads awaiting dispatch plus reads and writes with the
     * DMA in flight. The readahead throttle gates speculation on this
     * so a deep queue of guesses never builds up in front of demand
     * traffic; writes count too, since they occupy the same host
     * daemon and bus as the reads the throttle is trying to protect.
     */
    size_t queueDepth() const { return queued + inflight; }

    /** Batched reads of tenant @p asid still awaiting dispatch (with
     * no registry attached, all of them wait under kDefaultTenant). */
    size_t queueDepthOf(tenant::TenantId asid) const
    {
        auto it = queues.find(asid);
        if (it == queues.end())
            return 0;
        return it->second.demand.size() + it->second.spec.size();
    }

  private:
    struct Request
    {
        FileId file;
        uint64_t off;
        size_t len;
        sim::Addr addr;                ///< device buffer (dst or src)
        std::function<void(IoStatus)> onDone; ///< the terminal status
        bool write = false;            ///< device-to-host transfer
        bool low = false;              ///< low-priority (speculative)
        int attempt = 0;               ///< retry ordinal (0 = first)
        uint64_t fid = 0;              ///< fault id (0 = untracked)
        tenant::TenantId asid = 0;     ///< requesting address space
    };

    /** One queue of batched reads plus its DRR credit. */
    struct TenantQueue
    {
        std::deque<Request> demand;
        std::deque<Request> spec;  ///< low-priority (readahead)
        uint64_t deficit = 0;      ///< unspent dispatch credit, bytes

        bool empty() const { return demand.empty() && spec.empty(); }

        const Request& front() const
        {
            return demand.empty() ? spec.front() : demand.front();
        }
    };

    /**
     * Validate @p r's range, count the request, ring the doorbell (8
     * instructions on @p w) and submit it.
     * @return Ok if submitted (onDone will fire exactly once), or the
     *         validation error (onDone never fires)
     */
    IoStatus start(sim::Warp& w, Request r) AP_MUST_CHECK;

    /**
     * start() @p r, then block the calling fiber until its terminal
     * status arrives; the completion callback resumes the fiber.
     */
    IoStatus startAndWait(sim::Warp& w, Request r)
        AP_YIELDS AP_MUST_CHECK;

    /**
     * Stamp the enqueue stage, then queue a batched read for dispatch
     * or ship anything else as its own transfer.
     */
    void submit(Request r);

    /**
     * Ship @p group (@p bytes in total, all in one direction) as one
     * DMA once the host has staged it at @p host_free: reserve the bus,
     * stamp the transfer start, and schedule the completion, held up
     * by the largest injected delay of any member.
     * @return when the DMA itself ends (injected delay excluded)
     */
    sim::Cycles ship(std::vector<Request> group, size_t bytes,
                     sim::Cycles host_free);

    /**
     * Host-side completion of one attempt: consult the injector, then
     * move the bytes, and hand the outcome to finish().
     */
    void complete(const Request& r);

    /**
     * Deliver an attempt's outcome: re-submit a transient failure
     * after backoff while attempts remain, otherwise call onDone with
     * the terminal status exactly once.
     */
    void finish(const Request& r, IoStatus st);

    /** Backoff before re-issuing attempt @p attempt + 1. */
    sim::Cycles backoff(int attempt) const;

    /** Injector delay for this attempt (also counts the stat). */
    sim::Cycles injectedDelay(const Request& r);

    /** Queue @p r under its DRR key, arming dispatch if idle. */
    void enqueueBatched(Request r);

    /**
     * Dispatch-event body, deficit round-robin: serve the next queue
     * whose credit covers its head read with transfers of at most
     * maxBatchBytes, demand before speculation. A finite quantum ships
     * ONE transfer per event, so a tenant streaming megabytes cannot
     * convoy the window ahead of everyone else; unbounded credit
     * drains the queue.
     */
    void dispatch();

    /**
     * DRR credit one visit earns the queue of @p asid: unbounded with
     * no registry attached; else 16 KiB per IO-weight unit, or one
     * 4 KiB page for a zero-weight tenant, so best-effort traffic
     * trickles but never starves.
     */
    uint64_t quantumFor(tenant::TenantId asid) const;

    /** Re-arm the dispatch event if requests remain queued. */
    void armDispatch();

    sim::Device* dev;
    BackingStore* store_;
    FaultInjector* injector = nullptr;
    RetryPolicy retry;
    tenant::TenantRegistry* registry_ = nullptr;
    bool batching = true;
    sim::BwServer pcieToGpu;
    sim::BwServer pcieToHost;
    std::map<tenant::TenantId, TenantQueue> queues;
    size_t queued = 0;        ///< total requests across queues
    tenant::TenantId rrCursor = 0; ///< next ASID the DRR visits
    bool dispatchScheduled = false;
    size_t inflight = 0;      ///< shipped requests whose DMA is in flight

    /**
     * Handles on every stat charged per request, transfer, attempt or
     * dispatch. Failures and the registry's per-tenant names still
     * charge by name.
     */
    struct Stats
    {
        explicit Stats(StatGroup& s);

        StatGroup::Counter readRequests;    ///< hostio.read_requests
        StatGroup::Counter writeRequests;   ///< hostio.write_requests
        StatGroup::Counter readBytes;       ///< hostio.read_bytes
        StatGroup::Counter writeBytes;      ///< hostio.write_bytes
        StatGroup::Counter lowPriority;     ///< hostio.low_priority_requests
        StatGroup::Counter transfers;       ///< hostio.transfers
        StatGroup::Counter batchedRequests; ///< hostio.batched_requests
        StatGroup::Counter qosDispatches;   ///< hostio.qos_dispatches
        StatGroup::Counter retries;         ///< hostio.retries
        StatGroup::Counter injectedFaults;  ///< hostio.injected_faults
        StatGroup::Counter injectedDelays;  ///< hostio.injected_delays
        StatGroup::Counter rpcs;            ///< hostio.rpcs
    };
    // Trivially destructible: it adds no code to the inline destructor.
    Stats stats_;
};

} // namespace ap::hostio

#endif // AP_HOSTIO_HOST_IO_ENGINE_HH
