/**
 * @file
 * Host-IO QoS tests: the deficit-round-robin dispatcher's weighted
 * bandwidth split under saturation, the zero-weight floor (no
 * starvation), the pinned dispatch order, the attach-while-queued
 * contract, and the queue-depth signal counting in-flight writes (the
 * admission gate reads it).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "hostio/host_io_engine.hh"
#include "tenant/tenant.hh"

namespace ap::hostio {
namespace {

struct QosFixture
{
    sim::Device dev{sim::CostModel{}, size_t(32) << 20};
    BackingStore bs;
    tenant::TenantRegistry reg;
};

/** Per-tenant async-read trace: completion cycles in finish order. */
struct Trace
{
    std::vector<double> heavy;
    std::vector<double> light;
};

/**
 * Two tenants with IO weights @p w_heavy : @p w_light each enqueue
 * @p reads_each reads of @p read_bytes at t=0 (saturating the host
 * DMA queue) and the completion cycle of every read is recorded.
 */
Trace
runContendedReads(uint32_t w_heavy, uint32_t w_light,
                  uint32_t reads_each, size_t read_bytes)
{
    QosFixture fx;
    FileId f = fx.bs.create("f", 4 << 20);
    tenant::RegisterResult heavy =
        fx.reg.registerTenant({"heavy", 1, w_heavy});
    tenant::RegisterResult light =
        fx.reg.registerTenant({"light", 1, w_light});
    EXPECT_TRUE(heavy.ok());
    EXPECT_TRUE(light.ok());

    HostIoEngine io(fx.dev, fx.bs);
    io.setTenantRegistry(&fx.reg);
    sim::Addr dst = fx.dev.mem().alloc(2 << 20);

    Trace tr;
    fx.dev.launch(1, 2, [&](sim::Warp& w) {
        const bool is_heavy = w.warpInBlock() == 0;
        w.setTenant(is_heavy ? heavy.id : light.id);
        std::vector<double>& done = is_heavy ? tr.heavy : tr.light;
        uint64_t file_base = is_heavy ? 0 : (2 << 20);
        sim::Addr dst_base = dst + (is_heavy ? 0 : (1 << 20));
        for (uint32_t i = 0; i < reads_each; ++i) {
            IoStatus st = io.readToGpuAsync(
                w, f, file_base + uint64_t(i) * read_bytes, read_bytes,
                dst_base + i * read_bytes,
                [&done, &fx](IoStatus io_st) {
                    EXPECT_EQ(io_st, IoStatus::Ok);
                    done.push_back(fx.dev.engine().now());
                });
            EXPECT_EQ(st, IoStatus::Ok);
        }
    });
    EXPECT_EQ(tr.heavy.size(), reads_each);
    EXPECT_EQ(tr.light.size(), reads_each);
    return tr;
}

TEST(TenantQosIo, DrrSplitsBandwidthByWeightUnderSaturation)
{
    // 4:1 weights, equal 16 KB reads: while both queues are backlogged
    // the heavy tenant gets four reads per round to the light one's
    // one, so when the heavy tenant drains its 32 reads the light
    // tenant should have completed roughly 32/4 = 8 of its own.
    Trace tr = runContendedReads(4, 1, 32, 16384);
    double heavy_end =
        *std::max_element(tr.heavy.begin(), tr.heavy.end());
    double light_end =
        *std::max_element(tr.light.begin(), tr.light.end());
    EXPECT_LT(heavy_end, light_end);
    size_t light_before = 0;
    for (double t : tr.light)
        if (t < heavy_end)
            light_before++;
    EXPECT_GE(light_before, 4u);
    EXPECT_LE(light_before, 16u);
}

TEST(TenantQosIo, ZeroWeightTenantIsFloorScheduledNotStarved)
{
    // A zero-weight tenant gets the floor quantum: it yields to any
    // weighted tenant but still makes steady progress — the floor
    // credit (4 KB/round) accumulates until it covers a 16 KB read,
    // so its first read completes while the heavy tenant's 8-round
    // backlog drains, and every one of its reads completes.
    Trace tr = runContendedReads(4, 0, 32, 16384);
    double heavy_end =
        *std::max_element(tr.heavy.begin(), tr.heavy.end());
    double light_first =
        *std::min_element(tr.light.begin(), tr.light.end());
    EXPECT_LT(light_first, heavy_end);
}

/** @p n copies of each completion cycle in @p runs, in order. */
std::vector<double>
repeatEach(std::initializer_list<double> runs, size_t n)
{
    std::vector<double> out;
    for (double t : runs)
        out.insert(out.end(), n, t);
    return out;
}

TEST(TenantQosIo, DispatchOrderIsDeterministic)
{
    // 3:2 weights earn 48 KiB and 32 KiB per visit: six and four 8 KiB
    // reads per transfer, alternating until the heavy tenant drains.
    Trace tr = runContendedReads(3, 2, 24, 8192);
    EXPECT_EQ(tr.heavy,
              repeatEach({19230.575342465752, 43841.534246575342,
                          68452.493150684939, 93063.452054794529},
                         6));
    EXPECT_EQ(tr.light,
              repeatEach({30674.95890410959, 55285.917808219179,
                          79896.876712328769, 104507.83561643836,
                          115952.21917808219, 127396.60273972602},
                         4));
}

TEST(TenantQosIoDeath, AttachWhileReadsAreQueuedPanics)
{
    // A read's queue and credit depend on the registry: reads queued
    // under one discipline must not be served under the other.
    QosFixture fx;
    FileId f = fx.bs.create("f", 1 << 20);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(1 << 16);
    EXPECT_DEATH(fx.dev.launch(1, 1,
                               [&](sim::Warp& w) {
                                   EXPECT_EQ(io.readToGpuAsync(
                                                 w, f, 0, 4096, dst,
                                                 [](IoStatus) {}),
                                             IoStatus::Ok);
                                   io.setTenantRegistry(&fx.reg);
                               }),
                 "registry attached while 1 batched reads are queued");
}

TEST(TenantQosIo, PerTenantQueueDepthSeesBacklog)
{
    QosFixture fx;
    FileId f = fx.bs.create("f", 1 << 20);
    tenant::RegisterResult t = fx.reg.registerTenant({"t", 1, 1});
    ASSERT_TRUE(t.ok());
    HostIoEngine io(fx.dev, fx.bs);
    io.setTenantRegistry(&fx.reg);
    sim::Addr dst = fx.dev.mem().alloc(1 << 16);
    fx.dev.launch(1, 2, [&](sim::Warp& w) {
        if (w.warpInBlock() == 0) {
            w.setTenant(t.id);
            for (int i = 0; i < 4; ++i)
                EXPECT_EQ(io.readToGpuAsync(w, f, i * 4096, 4096,
                                            dst + i * 4096,
                                            [](IoStatus) {}),
                          IoStatus::Ok);
        } else {
            // Sample inside the aggregation window (relative to the
            // warp's start — the kernel itself begins after the launch
            // latency), before the first dispatch event fires.
            w.stall(w.costModel().hostBatchWindow / 2);
            EXPECT_EQ(io.queueDepthOf(t.id), 4u);
            EXPECT_GE(io.queueDepth(), 4u);
        }
    });
    EXPECT_EQ(io.queueDepth(), 0u);
}

TEST(TenantQosIo, QueueDepthCountsInFlightWrites)
{
    // The serving admission gate defers dispatch on queueDepth();
    // a write-heavy phase must register there too, or writeback
    // storms would be invisible to admission control.
    QosFixture fx;
    FileId f = fx.bs.create("f", 1 << 20);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr src = fx.dev.mem().alloc(1 << 16);
    size_t observed = 0;
    fx.dev.launch(1, 2, [&](sim::Warp& w) {
        if (w.warpInBlock() == 0) {
            EXPECT_EQ(io.writeFromGpu(w, f, 0, 1 << 16, src),
                      IoStatus::Ok);
        } else {
            w.stall(500); // the write's DMA is still in flight
            observed = io.queueDepth();
        }
    });
    EXPECT_GE(observed, 1u);
    EXPECT_EQ(io.queueDepth(), 0u);
}

} // namespace
} // namespace ap::hostio
