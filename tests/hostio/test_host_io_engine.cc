#include <gtest/gtest.h>

#include <vector>

#include "hostio/host_io_engine.hh"

namespace ap::hostio {
namespace {

struct IoFixture
{
    sim::Device dev{sim::CostModel{}, 1 << 22};
    BackingStore bs;
};

/** One read of a burst: its byte range and whether it is speculative. */
struct BurstRead
{
    uint64_t off;
    size_t len;
    bool low;
};

/** What a burst of asynchronous reads did on the host. */
struct BurstResult
{
    std::vector<sim::Cycles> done; ///< completion cycle of each read
    uint64_t transfers = 0;
    uint64_t batched = 0;
};

/**
 * One warp queues @p reads back to back without waiting, from a file
 * of @p file_bytes, with no tenant registry attached.
 */
BurstResult
runBurst(const std::vector<BurstRead>& reads, uint64_t file_bytes)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", file_bytes);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(file_bytes);
    BurstResult r;
    r.done.assign(reads.size(), -1);
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        for (size_t i = 0; i < reads.size(); ++i) {
            const BurstRead& rd = reads[i];
            EXPECT_EQ(io.readToGpuAsync(
                          w, f, rd.off, rd.len, dst + rd.off,
                          [&r, &fx, i](IoStatus st) {
                              EXPECT_EQ(st, IoStatus::Ok);
                              r.done[i] = fx.dev.engine().now();
                          },
                          rd.low),
                      IoStatus::Ok);
        }
    });
    r.transfers = fx.dev.stats().counter("hostio.transfers");
    r.batched = fx.dev.stats().counter("hostio.batched_requests");
    return r;
}

TEST(HostIo, ReadDeliversBytes)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 8192);
    for (int i = 0; i < 8192; ++i)
        fx.bs.data(f, 0, 8192)[i] = static_cast<uint8_t>(i * 13);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(8192);
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(io.readToGpu(w, f, 0, 8192, dst), IoStatus::Ok);
    });
    for (int i = 0; i < 8192; ++i)
        EXPECT_EQ(fx.dev.mem().load<uint8_t>(dst + i),
                  static_cast<uint8_t>(i * 13));
}

TEST(HostIo, ReadBlocksForTransferTime)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 1 << 20);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(1 << 20);
    sim::Cycles dt = 0;
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        sim::Cycles t0 = w.now();
        EXPECT_EQ(io.readToGpu(w, f, 0, 1 << 20, dst), IoStatus::Ok);
        dt = w.now() - t0;
    });
    const sim::CostModel& cm = fx.dev.costModel();
    // At least the PCIe serialization time of 1 MB.
    EXPECT_GE(dt, (1 << 20) / cm.pcieBytesPerCycle);
}

TEST(HostIo, BatchingAggregatesConcurrentReads)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 64 * 4096);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(64 * 4096);
    // 16 warps each read one 4 KB page concurrently.
    fx.dev.launch(1, 16, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
    });
    // All 16 requests should share very few PCIe transfers.
    EXPECT_LE(fx.dev.stats().counter("hostio.transfers"), 2u);
    EXPECT_EQ(fx.dev.stats().counter("hostio.read_requests"), 16u);
}

TEST(HostIo, NoBatchingIssuesOneTransferPerRead)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 64 * 4096);
    HostIoEngine io(fx.dev, fx.bs);
    io.setBatching(false);
    sim::Addr dst = fx.dev.mem().alloc(64 * 4096);
    fx.dev.launch(1, 16, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
    });
    EXPECT_EQ(fx.dev.stats().counter("hostio.transfers"), 16u);
}

TEST(HostIo, BatchingIsFasterForSmallPages)
{
    auto run = [](bool batching) {
        IoFixture fx;
        FileId f = fx.bs.create("f", 256 * 4096);
        HostIoEngine io(fx.dev, fx.bs);
        io.setBatching(batching);
        sim::Addr dst = fx.dev.mem().alloc(256 * 4096);
        return fx.dev.launch(2, 32, [&](sim::Warp& w) {
            for (int k = 0; k < 4; ++k) {
                int i = w.globalWarpId() * 4 + k;
                EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
            }
        });
    };
    sim::Cycles batched = run(true);
    sim::Cycles unbatched = run(false);
    EXPECT_LT(batched, unbatched);
}

TEST(HostIo, WriteFromGpuPersists)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 4096);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr src = fx.dev.mem().alloc(4096);
    for (int i = 0; i < 4096; ++i)
        fx.dev.mem().store<uint8_t>(src + i, static_cast<uint8_t>(i));
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(io.writeFromGpu(w, f, 0, 4096, src), IoStatus::Ok);
    });
    for (int i = 0; i < 4096; ++i)
        EXPECT_EQ(fx.bs.data(f, 0, 4096)[i], static_cast<uint8_t>(i));
}

TEST(HostIo, RpcRunsOnHostAndReturnsValue)
{
    IoFixture fx;
    HostIoEngine io(fx.dev, fx.bs);
    int64_t got = 0;
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        got = io.rpc(w, [] { return int64_t(4242); });
    });
    EXPECT_EQ(got, 4242);
}

TEST(HostIo, LargeReadSplitsIntoMaxBatchTransfers)
{
    IoFixture fx;
    FileId f = fx.bs.create("f", 3 << 20);
    HostIoEngine io(fx.dev, fx.bs);
    sim::Addr dst = fx.dev.mem().alloc(3 << 20);
    // 3 MB of 4 KB requests with a 1 MB batch limit => >= 3 transfers.
    fx.dev.launch(1, 24, [&](sim::Warp& w) {
        for (int k = 0; k < 32; ++k) {
            uint64_t i = w.warpInBlock() * 32u + k;
            EXPECT_EQ(io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096),
                  IoStatus::Ok);
        }
    });
    EXPECT_GE(fx.dev.stats().counter("hostio.transfers"), 3u);
}

TEST(HostIo, SingleQueueBatchTimingIsPinned)
{
    // 300 reads of 4 KiB, every 7th speculative. The first 32
    // doorbells land inside the 2000-cycle window and ride one DMA.
    // The other 268 queue behind it, and the next dispatch event
    // splits them at 1 MiB: every demand read plus the 26 oldest
    // speculative ones, then the last 12 speculative reads.
    std::vector<BurstRead> reads;
    for (uint64_t i = 0; i < 300; ++i)
        reads.push_back({i * 4096, 4096, i % 7 == 0});
    BurstResult r = runBurst(reads, 300 * 4096);
    EXPECT_EQ(r.transfers, 3u);
    EXPECT_EQ(r.batched, 300u);
    for (size_t i = 0; i < reads.size(); ++i) {
        const sim::Cycles want = i < 32 ? 32641.534246575342
                                 : !reads[i].low || i < 217
                                     ? 189261.80821917808
                                     : 200628.38356164383;
        EXPECT_EQ(r.done[i], want) << "read " << i;
    }
}

TEST(HostIo, SpeculationFillsTheSlackOfASplitTransfer)
{
    // Four 300 KiB demand reads overflow the 1 MiB split after the
    // third, leaving 124 KiB of slack. Speculative reads then fill it
    // in arrival order, stopping at the first that does not fit: the
    // 2 KiB end-of-file read rides the first transfer, the 300 KiB
    // one does not fit, and the 1 KiB one waits behind it.
    constexpr uint64_t kRead = 300 << 10;
    constexpr uint64_t kEnd = 5 * kRead + 3072;
    BurstResult r = runBurst({{0, kRead, false},
                              {kRead, kRead, false},
                              {2 * kRead, kRead, false},
                              {3 * kRead, kRead, false},
                              {kEnd - 2048, 2048, true},
                              {4 * kRead, kRead, true},
                              {5 * kRead, 1024, true}},
                             kEnd);
    EXPECT_EQ(r.transfers, 2u);
    EXPECT_EQ(r.batched, 7u);
    const sim::Cycles first = 78527.561643835623;
    const sim::Cycles second = 128679.89041095891;
    EXPECT_EQ(r.done, (std::vector<sim::Cycles>{first, first, first, second,
                                                first, second, second}));
}

} // namespace
} // namespace ap::hostio
