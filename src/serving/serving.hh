/**
 * @file
 * The closed-loop serving harness (docs/SERVING.md): thousands of
 * simulated clients issue collage/LSH queries (paper section VI-E)
 * against one long-running GPU kernel whose worker warps claim
 * requests from a host-side scheduler. The pieces:
 *
 *  - arrival processes (arrival.hh): closed loop with exponential
 *    think times, open-loop Poisson, and bursty on/off — all
 *    deterministic under a seed;
 *  - admission control: a bounded pending queue (overflow is shed and
 *    counted), a bounded in-flight window, and an optional host-IO
 *    congestion gate on HostIoEngine::queueDepth() that defers
 *    dispatch while the DMA queue is deep;
 *  - cross-request batching: concurrent queries fault through the
 *    same page cache and their host reads aggregate in the engine's
 *    existing batching window, so the serving path exercises the
 *    paper's small-page batching optimization under real concurrency;
 *  - SLO metrics: end-to-end, queue-wait and service latency recorded
 *    per request into the device StatGroup's log2 histograms, plus
 *    throughput over the simulated makespan.
 *
 * Every request's answer is validated against a host-side reference
 * (the collage winner, or the exact scan checksum), so a translation
 * bug under load is a wrong answer, not a plausible-looking latency.
 */

#ifndef AP_SERVING_SERVING_HH
#define AP_SERVING_SERVING_HH

#include <vector>

#include "collage/collage.hh"
#include "serving/arrival.hh"

namespace ap::serving {

/**
 * One tenant's traffic class in a multi-tenant serving run. Each
 * tenant is registered in a TenantRegistry for the run's duration,
 * its requests execute under its own ASID (warps bind per request),
 * and it is torn down — TLB audit, page-cache scrub, ASID release —
 * when the run ends.
 */
struct TenantTraffic
{
    /** Registry name; also labels the per-tenant result row. */
    std::string name = "tenant";

    /** Clients of this tenant (closed loop). */
    uint32_t clients = 256;

    /** Requests this tenant contributes to the run. */
    uint32_t requests = 512;

    /** Mean think time between one client's requests. */
    double meanThinkCycles = 200000;

    /** This tenant's clients issue nothing before this cycle — e.g.
     * an antagonist that arrives after the victim has warmed up, so
     * the measured interference is steady-state, not cold-start. */
    double startCycles = 0;

    /** Every Nth request is a scan (1 = scan-only, 0 = collage only).
     * At most one tenant per run may issue collage queries. */
    uint32_t scanEvery = 0;

    /** Bytes each scan query streams (multiple of 128). */
    uint32_t scanBytes = 32768;

    /** Scan offsets are drawn from the first this-many bytes of the
     * scan file (0 = the whole file). A small window makes a
     * cache-resident, latency-sensitive tenant; the whole file makes
     * a streaming antagonist that wants every frame. */
    uint64_t scanWindowBytes = 0;

    /** Walk the window in order instead of sampling it uniformly: the
     * class's k-th scan starts at page k mod (the window's last legal
     * start page + 1). A sweeping victim touches every page of its
     * working set during warm-up, so steady-state misses measure
     * eviction, not the coupon-collector tail of random sampling. */
    bool scanSweep = false;

    /** Every Nth scan ignores the window and samples the whole file
     * (0 = never): a mostly-resident tenant with a steady trickle of
     * compulsory misses, which is what exposes it to the cache and
     * host-IO contention QoS is supposed to bound. */
    uint32_t scanWideEvery = 0;

    /** QoS weights handed to the registry at registration. */
    uint32_t cacheWeight = 1;
    uint32_t ioWeight = 1;
};

/** One serving experiment's knobs. */
struct ServingConfig
{
    Arrival arrival = Arrival::Closed;

    /** Open-loop arrival knobs (ignored for Closed). */
    ArrivalParams arrivals;

    /** Simulated clients issuing requests. */
    uint32_t clients = 1024;

    /** Total requests to resolve (completed + shed) before stopping. */
    uint32_t requests = 2048;

    /** Closed loop: mean think time between a client's requests. */
    double meanThinkCycles = 200000;

    /** Pending-queue bound; arrivals beyond it are shed (0 = none). */
    uint32_t queueCap = 0;

    /** Concurrent in-flight bound (0 = one per worker warp). */
    uint32_t maxInFlight = 0;

    /** Defer dispatch while HostIoEngine::queueDepth() exceeds this
     * (0 = gate off). */
    size_t ioDepthCap = 0;

    /** Re-poll interval for a gated or idle worker warp. */
    double pollCycles = 2000;

    /** Every Nth request is a sequential file-scan query instead of a
     * collage query (0 = collage only). */
    uint32_t scanEvery = 0;

    /** Bytes each scan query streams (multiple of 128). */
    uint32_t scanBytes = 32768;

    /** Worker kernel geometry. */
    int numBlocks = 8;
    int warpsPerBlock = 8;

    uint64_t seed = 1;

    /**
     * Multi-tenant mode: when non-empty, these traffic classes replace
     * the clients/requests/think/scan knobs above (closed loop only)
     * and each runs under its own registered ASID. Empty = the
     * original single-tenant path, nothing registered or attached.
     */
    std::vector<TenantTraffic> tenants;

    /**
     * Attach the registry to the page cache and host-IO engine so the
     * eviction clock respects weighted frame shares and host reads
     * dispatch by deficit round-robin. Off = tenants still get ASIDs,
     * per-tenant metrics, and teardown, but share the cache and bus
     * with no isolation — the ablation baseline the QoS numbers are
     * read against.
     */
    bool qosIsolation = true;
};

/**
 * The host-side request workload: a pool of query blocks with their
 * reference answers, plus the side file scan queries stream. Built
 * once (makeWorkload) and shared by every scenario against the same
 * dataset.
 */
struct ServingWorkload
{
    /** Query pool; each request picks one block. */
    collage::CollageInput queries;

    /** Reference winner per query block (CPU-computed). Tests may
     * doctor these to prove validation failures reach the exit code. */
    std::vector<uint32_t> expected;

    /** Side file for scan queries. */
    hostio::FileId scanFile = -1;
    uint64_t scanFileBytes = 0;
};

/** Deterministic content of float word @p i of the scan side file. */
inline float
scanValue(uint64_t i)
{
    return static_cast<float>((i * 2654435761ULL) & 0x3ff) * 0.25f;
}

/**
 * Build the serving workload: a @p query_blocks-block query pool over
 * @p ds (with host-side reference winners) and the scan side file
 * written into @p bs.
 */
ServingWorkload makeWorkload(hostio::BackingStore& bs,
                             const collage::Dataset& ds,
                             uint32_t query_blocks, uint64_t seed);

/** Per-tenant slice of a multi-tenant run's metrics. */
struct TenantResult
{
    std::string name;
    uint16_t asid = 0;
    uint32_t completed = 0;

    /** End-to-end latency of this tenant's requests, cycles. */
    double e2eP50 = 0;
    double e2eP95 = 0;
    double e2eP99 = 0;

    /** Demand misses charged to this tenant. */
    uint64_t majorFaults = 0;

    /** Host-IO bytes the dispatcher shipped for this tenant (0 when
     * QoS isolation is off: with no registry attached, every read
     * waits in one shared queue and is not attributed). */
    uint64_t ioBytes = 0;
};

/** What one serving run measured. */
struct ServingResult
{
    /** Requests resolved: completed + shed == the configured total. */
    uint32_t completed = 0;
    uint32_t shed = 0;

    /** Dispatches deferred by the host-IO congestion gate. */
    uint64_t ioDeferrals = 0;

    /** Answers that disagreed with the host-side reference. */
    uint32_t validationErrors = 0;

    /** Simulated makespan (upload + kernel). */
    sim::Cycles elapsed = 0;

    /** Completed queries per simulated second. */
    double qps = 0;

    /** End-to-end latency (arrival to completion), cycles. */
    double e2eP50 = 0;
    double e2eP95 = 0;
    double e2eP99 = 0;
    double e2eMean = 0;
    double e2eMax = 0;

    /** Queue-wait (arrival to claim) p95, cycles. */
    double queueWaitP95 = 0;

    /** Service (claim to completion) p50, cycles. */
    double serviceP50 = 0;

    /** Memory-system context: demand major faults and host reads that
     * rode in a shared DMA batch. */
    uint64_t majorFaults = 0;
    uint64_t batchedRequests = 0;

    /** Per-tenant slices (cfg.tenants order; empty when single-tenant). */
    std::vector<TenantResult> tenants;

    /** All tenant teardowns (TLB audit + cache scrub + ASID release)
     * returned Ok. Vacuously true for single-tenant runs. */
    bool teardownOk = true;
};

/**
 * Run one serving experiment: launch the worker kernel on @p rt's
 * device and drive @p cfg.requests requests from @p wl through it.
 * Latency histograms land in the device StatGroup under "serving.*"
 * (so StatGroup::dumpJson exports them); the summary comes back in
 * the ServingResult.
 */
ServingResult serve(core::GvmRuntime& rt, const collage::Dataset& ds,
                    const ServingWorkload& wl, const ServingConfig& cfg);

} // namespace ap::serving

#endif // AP_SERVING_SERVING_HH
