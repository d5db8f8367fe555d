/**
 * @file
 * Fault injection and retry behavior of the host I/O engine: the
 * deterministic injector, retry-until-success with backoff, terminal
 * failures surfacing IoError to the caller, batch isolation (one
 * poisoned request does not wedge its batch), and the checked EOF
 * path shared by every transfer variant.
 */

#include <gtest/gtest.h>

#include "hostio/host_io_engine.hh"

namespace ap::hostio {
namespace {

struct FiFixture
{
    sim::Device dev{sim::CostModel{}, 1 << 22};
    BackingStore bs;
    /** Scratch device buffer shared by the tests. */
    sim::Addr buf = dev.mem().alloc(1 << 20);
};

TEST(FaultInjector, DecisionsAreDeterministic)
{
    FaultInjector::Config cfg;
    cfg.seed = 7;
    cfg.transientReadRate = 0.5;
    FaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.onRead(1, i * 4096, 4096, 0),
                  b.onRead(1, i * 4096, 4096, 0));
}

TEST(FaultInjector, RetriesDrawIndependently)
{
    FaultInjector::Config cfg;
    cfg.seed = 7;
    cfg.transientReadRate = 0.5;
    FaultInjector fi(cfg);
    // With a 50% rate, some attempt in the first dozen must differ
    // from attempt 0 — a seed-only draw would repeat forever.
    Fault first = fi.onRead(1, 0, 4096, 0);
    bool varied = false;
    for (int a = 1; a < 12 && !varied; ++a)
        varied = fi.onRead(1, 0, 4096, a) != first;
    EXPECT_TRUE(varied);
}

TEST(FaultInjector, ZeroRatesInjectNothing)
{
    FaultInjector fi;
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(fi.onRead(0, i * 512, 512, 0), Fault::None);
        EXPECT_EQ(fi.onWrite(0, i * 512, 512, 0), Fault::None);
        EXPECT_EQ(fi.completionDelay(0, i * 512, 0), 0.0);
    }
}

TEST(FaultInjector, PersistentRangesOverlapByBytes)
{
    FaultInjector fi;
    fi.failReads(2, 4096, 4096); // second page of file 2
    EXPECT_EQ(fi.onRead(2, 0, 4096, 0), Fault::None);
    EXPECT_EQ(fi.onRead(2, 4096, 4096, 0), Fault::Persistent);
    EXPECT_EQ(fi.onRead(2, 8000, 1000, 3), Fault::Persistent);
    EXPECT_EQ(fi.onRead(2, 8192, 4096, 0), Fault::None);
    EXPECT_EQ(fi.onRead(3, 4096, 4096, 0), Fault::None); // other file
    EXPECT_EQ(fi.onWrite(2, 4096, 4096, 0), Fault::None); // reads only
    fi.clearPersistent();
    EXPECT_EQ(fi.onRead(2, 4096, 4096, 0), Fault::None);
}

TEST(HostIoFault, TransientReadRetriesUntilSuccess)
{
    FiFixture fx;
    FileId f = fx.bs.create("f", 8192);
    for (int i = 0; i < 8192; ++i)
        fx.bs.data(f, 0, 8192)[i] = static_cast<uint8_t>(i * 7);
    HostIoEngine io(fx.dev, fx.bs);
    FaultInjector::Config cfg;
    cfg.seed = 3;
    cfg.transientReadRate = 0.5;
    FaultInjector fi(cfg);
    io.setFaultInjector(&fi);
    HostIoEngine::RetryPolicy rp;
    rp.maxAttempts = 20; // 0.5^20: exhaustion is effectively impossible
    io.setRetryPolicy(rp);

    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        // 16 independent reads at distinct offsets: at a 50% rate the
        // chance that the (deterministic) injector spares all of them
        // is 2^-16, so at least one retry is effectively guaranteed.
        for (int r = 0; r < 16; ++r) {
            sim::Addr dst = fx.buf + r * 512;
            EXPECT_EQ(io.readToGpu(w, f, r * 512, 512, dst),
                      IoStatus::Ok);
            for (int i = 0; i < 512; ++i)
                EXPECT_EQ(w.mem().load<uint8_t>(dst + i),
                          static_cast<uint8_t>((r * 512 + i) * 7));
        }
    });
    EXPECT_GE(fx.dev.stats().counter("hostio.retries"), 1u);
    EXPECT_GE(fx.dev.stats().counter("hostio.injected_faults"), 1u);
    EXPECT_EQ(fx.dev.stats().counter("hostio.failures"), 0u);
}

TEST(HostIoFault, RetriesBackOffInSimulatedTime)
{
    auto run = [](double rate) {
        FiFixture fx;
        FileId f = fx.bs.create("f", 16 * 4096);
        HostIoEngine io(fx.dev, fx.bs);
        FaultInjector::Config cfg;
        cfg.seed = 3;
        cfg.transientReadRate = rate;
        FaultInjector fi(cfg);
        io.setFaultInjector(&fi);
        HostIoEngine::RetryPolicy rp;
        rp.maxAttempts = 30;
        io.setRetryPolicy(rp);
        return fx.dev.launch(1, 1, [&](sim::Warp& w) {
            for (int p = 0; p < 16; ++p)
                EXPECT_EQ(io.readToGpu(w, f, p * 4096, 4096,
                                       fx.buf + p * 4096),
                          IoStatus::Ok);
        });
    };
    // Each retry costs at least one backoff period, so the faulty run
    // must take strictly longer than the clean one.
    EXPECT_GT(run(0.5), run(0.0));
}

TEST(HostIoFault, PersistentReadFailsTerminally)
{
    for (bool batching : {true, false}) {
        FiFixture fx;
        FileId f = fx.bs.create("f", 8192);
        HostIoEngine io(fx.dev, fx.bs);
        io.setBatching(batching);
        FaultInjector fi;
        fi.failReads(f, 0, 4096);
        io.setFaultInjector(&fi);

        IoStatus st = IoStatus::Ok;
        fx.dev.launch(1, 1, [&](sim::Warp& w) {
            st = io.readToGpu(w, f, 0, 4096, fx.buf);
        });
        EXPECT_EQ(st, IoStatus::IoError) << "batching=" << batching;
        EXPECT_GE(fx.dev.stats().counter("hostio.failures"), 1u);
    }
}

TEST(HostIoFault, PoisonedRequestDoesNotWedgeItsBatch)
{
    FiFixture fx;
    FileId f = fx.bs.create("f", 16 * 4096);
    auto* p = fx.bs.data(f, 0, 16 * 4096);
    for (int i = 0; i < 16 * 4096; ++i)
        p[i] = static_cast<uint8_t>(i);
    HostIoEngine io(fx.dev, fx.bs);
    FaultInjector fi;
    fi.failReads(f, 5 * 4096, 4096); // poison page 5 only
    io.setFaultInjector(&fi);

    IoStatus got[16];
    sim::Addr dst = fx.buf;
    // 16 warps read one page each; they aggregate into shared batches.
    fx.dev.launch(1, 16, [&](sim::Warp& w) {
        int i = w.warpInBlock();
        got[i] = io.readToGpu(w, f, i * 4096, 4096, dst + i * 4096);
    });
    for (int i = 0; i < 16; ++i) {
        if (i == 5) {
            EXPECT_EQ(got[i], IoStatus::IoError);
            continue;
        }
        EXPECT_EQ(got[i], IoStatus::Ok) << "page " << i;
        for (int b = 0; b < 4096; b += 997)
            EXPECT_EQ(fx.dev.mem().load<uint8_t>(dst + i * 4096 + b),
                      static_cast<uint8_t>(i * 4096 + b));
    }
}

TEST(HostIoFault, TransientWriteRetriesAndPersists)
{
    FiFixture fx;
    FileId f = fx.bs.create("f", 4096);
    HostIoEngine io(fx.dev, fx.bs);
    FaultInjector::Config cfg;
    cfg.seed = 11;
    cfg.transientWriteRate = 0.5;
    FaultInjector fi(cfg);
    io.setFaultInjector(&fi);
    HostIoEngine::RetryPolicy rp;
    rp.maxAttempts = 20;
    io.setRetryPolicy(rp);

    sim::Addr src = fx.buf;
    for (int i = 0; i < 4096; ++i)
        fx.dev.mem().store<uint8_t>(src + i, static_cast<uint8_t>(i * 5));
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(io.writeFromGpu(w, f, 0, 4096, src), IoStatus::Ok);
    });
    for (int i = 0; i < 4096; ++i)
        EXPECT_EQ(fx.bs.data(f, 0, 4096)[i], static_cast<uint8_t>(i * 5));
    EXPECT_GE(fx.dev.stats().counter("hostio.retries"), 1u);
}

TEST(HostIoFault, PersistentWriteFailsTerminally)
{
    FiFixture fx;
    FileId f = fx.bs.create("f", 4096);
    HostIoEngine io(fx.dev, fx.bs);
    FaultInjector fi;
    fi.failWrites(f, 0, 4096);
    io.setFaultInjector(&fi);
    IoStatus st = IoStatus::Ok;
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        st = io.writeFromGpu(w, f, 0, 4096, fx.buf);
    });
    EXPECT_EQ(st, IoStatus::IoError);
    EXPECT_GE(fx.dev.stats().counter("hostio.failures"), 1u);
}

TEST(HostIoFault, DelayedCompletionStretchesTheTransfer)
{
    auto run = [](double delay_cycles) {
        FiFixture fx;
        FileId f = fx.bs.create("f", 4096);
        HostIoEngine io(fx.dev, fx.bs);
        FaultInjector::Config cfg;
        cfg.delayRate = 1.0;
        cfg.delayCycles = delay_cycles;
        FaultInjector fi(cfg);
        io.setFaultInjector(&fi);
        return fx.dev.launch(1, 1, [&](sim::Warp& w) {
            EXPECT_EQ(io.readToGpu(w, f, 0, 4096, fx.buf),
                      IoStatus::Ok);
        });
    };
    sim::Cycles slow = run(50000.0);
    sim::Cycles fast = run(0.0);
    EXPECT_GE(slow, fast + 50000.0);
}

TEST(HostIoFault, CheckedEofIsUniformAcrossVariants)
{
    FiFixture fx;
    FileId f = fx.bs.create("f", 6000); // not page aligned
    HostIoEngine io(fx.dev, fx.bs);
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        // Fully in range, spanning the partial last page.
        EXPECT_EQ(io.readToGpu(w, f, 4096, 6000 - 4096, fx.buf),
                  IoStatus::Ok);
        // Past EOF: every variant reports instead of asserting.
        EXPECT_EQ(io.readToGpu(w, f, 6000, 1, fx.buf), IoStatus::Eof);
        EXPECT_EQ(io.readToGpu(w, f, 4096, 4096, fx.buf),
                  IoStatus::Eof);
        EXPECT_EQ(io.writeFromGpu(w, f, 6000, 1, fx.buf),
                  IoStatus::Eof);
        EXPECT_EQ(io.readToGpu(w, -1, 0, 16, fx.buf),
                  IoStatus::BadFile);
        EXPECT_EQ(io.writeFromGpu(w, 99, 0, 16, fx.buf),
                  IoStatus::BadFile);
        bool fired = false;
        EXPECT_EQ(io.readToGpuAsync(w, f, 6000, 16, fx.buf,
                                    [&](IoStatus) { fired = true; }),
                  IoStatus::Eof);
        EXPECT_FALSE(fired); // validation errors never call back
    });
    // Every failed validation counted, and none consumed a transfer.
    EXPECT_EQ(fx.dev.stats().counter("hostio.failures"), 6u);
}

TEST(HostIoFault, AsyncReadRetriesEngineSide)
{
    FiFixture fx;
    FileId f = fx.bs.create("f", 4096);
    for (int i = 0; i < 4096; ++i)
        fx.bs.data(f, 0, 4096)[i] = static_cast<uint8_t>(i * 3);
    HostIoEngine io(fx.dev, fx.bs);
    FaultInjector::Config cfg;
    cfg.seed = 5;
    cfg.transientReadRate = 0.5;
    FaultInjector fi(cfg);
    io.setFaultInjector(&fi);
    HostIoEngine::RetryPolicy rp;
    rp.maxAttempts = 20;
    io.setRetryPolicy(rp);

    int calls = 0;
    IoStatus final_st = IoStatus::IoError;
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(io.readToGpuAsync(w, f, 0, 4096, fx.buf,
                                    [&](IoStatus st) {
                                        ++calls;
                                        final_st = st;
                                    }),
                  IoStatus::Ok);
    });
    // launch() drains the event queue, so the retries have resolved.
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(final_st, IoStatus::Ok);
    EXPECT_GE(fx.dev.stats().counter("hostio.retries"), 1u);
    for (int i = 0; i < 4096; ++i)
        EXPECT_EQ(fx.dev.mem().load<uint8_t>(fx.buf + i),
                  static_cast<uint8_t>(i * 3));
}

TEST(HostIoFault, AsyncPersistentFailureReportsOnce)
{
    FiFixture fx;
    FileId f = fx.bs.create("f", 4096);
    HostIoEngine io(fx.dev, fx.bs);
    FaultInjector fi;
    fi.failReads(f, 0, 4096);
    io.setFaultInjector(&fi);
    int calls = 0;
    IoStatus final_st = IoStatus::Ok;
    fx.dev.launch(1, 1, [&](sim::Warp& w) {
        EXPECT_EQ(io.readToGpuAsync(w, f, 0, 4096, fx.buf,
                                    [&](IoStatus st) {
                                        ++calls;
                                        final_st = st;
                                    }),
                  IoStatus::Ok);
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(final_st, IoStatus::IoError);
    EXPECT_GE(fx.dev.stats().counter("hostio.failures"), 1u);
}

TEST(HostIoFault, TransferParityBetweenBatchedAndUnbatched)
{
    // The same serial workload must count the same number of PCIe
    // transfers on both paths: one per request, counted at completion.
    auto transfers = [](bool batching) {
        FiFixture fx;
        FileId f = fx.bs.create("f", 8 * 4096);
        HostIoEngine io(fx.dev, fx.bs);
        io.setBatching(batching);
        fx.dev.launch(1, 1, [&](sim::Warp& w) {
            for (int i = 0; i < 8; ++i)
                EXPECT_EQ(io.readToGpu(w, f, i * 4096u, 4096,
                                       fx.buf + i * 4096u),
                          IoStatus::Ok);
        });
        return fx.dev.stats().counter("hostio.transfers");
    };
    EXPECT_EQ(transfers(true), transfers(false));
}

/**
 * Golden retry timing. Four warps run blocking reads, blocking writes
 * and one asynchronous read each through a seeded mix of transient
 * read and write failures and delayed completions, batched and
 * unbatched. Every expected value is exact, so a retry that moves by
 * one event changes the launch cycles or a counter. Each read runs
 * inside an open fault record and some writes are issued inside it
 * too: writes carry no fault id, so they must neither stamp the
 * fault's transfer stages nor count toward faultpath.retries.
 */
TEST(HostIoFault, RetryTimingIsPinned)
{
    struct Outcome
    {
        sim::Cycles cycles;
        uint64_t retries, transfers, failures, fpRetries;
        double majorTransfer;
        int terminal;
    };
    auto run = [](bool batching) {
        FiFixture fx;
        FileId f = fx.bs.create("f", 32 * 4096);
        HostIoEngine io(fx.dev, fx.bs);
        io.setBatching(batching);
        FaultInjector::Config cfg;
        cfg.seed = 21;
        cfg.transientReadRate = 0.4;
        cfg.transientWriteRate = 0.4;
        cfg.delayRate = 0.2;
        cfg.delayCycles = 7000;
        FaultInjector fi(cfg);
        io.setFaultInjector(&fi);
        HostIoEngine::RetryPolicy rp;
        rp.maxAttempts = 3;
        io.setRetryPolicy(rp);

        Outcome o{};
        int async_calls = 0;
        o.cycles = fx.dev.launch(1, 4, [&](sim::Warp& w) {
            sim::FaultPath& fp = fx.dev.faultPath();
            const uint64_t base = w.warpInBlock() * 8u;
            for (uint64_t k = 0; k < 4; ++k) {
                const uint64_t page = base + k;
                const sim::Addr a = fx.buf + page * 4096;
                const uint64_t fid =
                    fp.begin(w.warpInBlock(), f, page, w.now());
                w.setActiveFault(fid);
                IoStatus st = io.readToGpu(w, f, page * 4096, 4096, a);
                o.terminal += st != IoStatus::Ok;
                if (k % 2 == 1) {
                    IoStatus ws =
                        io.writeFromGpu(w, f, page * 4096, 4096, a);
                    o.terminal += ws != IoStatus::Ok;
                }
                w.setActiveFault(0);
                fp.end(fid,
                       st == IoStatus::Ok ? sim::FaultKind::Major
                                          : sim::FaultKind::Error,
                       w.now());
            }
            const uint64_t page = base + 7;
            EXPECT_EQ(io.readToGpuAsync(w, f, page * 4096, 4096,
                                        fx.buf + page * 4096,
                                        [&](IoStatus st) {
                                            ++async_calls;
                                            o.terminal +=
                                                st != IoStatus::Ok;
                                        }),
                      IoStatus::Ok);
        });
        EXPECT_EQ(async_calls, 4);
        const StatGroup& s = fx.dev.stats();
        o.retries = s.counter("hostio.retries");
        o.transfers = s.counter("hostio.transfers");
        o.failures = s.counter("hostio.failures");
        o.fpRetries = s.counter("faultpath.retries");
        const Histogram* h = s.findHistogram("faultpath.major.transfer");
        o.majorTransfer = h ? h->sum() : -1.0;
        return o;
    };
    // Retries, failures and faultpath.retries do not depend on
    // batching (the injector draws per request and attempt); the
    // transfer count, the timing and the transfer-stage sum do.
    // faultpath.retries (11) counts only the reads' retries inside an
    // open fault, out of 18.
    const Outcome batched = run(true);
    EXPECT_EQ(batched.cycles, 213350.08219178076);
    EXPECT_EQ(batched.retries, 18u);
    EXPECT_EQ(batched.transfers, 33u);
    EXPECT_EQ(batched.failures, 3u);
    EXPECT_EQ(batched.fpRetries, 11u);
    EXPECT_EQ(batched.majorTransfer, 156819.17808219179);
    EXPECT_EQ(batched.terminal, 3);

    const Outcome unbatched = run(false);
    EXPECT_EQ(unbatched.cycles, 282388.98630136967);
    EXPECT_EQ(unbatched.retries, 18u);
    EXPECT_EQ(unbatched.transfers, 46u);
    EXPECT_EQ(unbatched.failures, 3u);
    EXPECT_EQ(unbatched.fpRetries, 11u);
    EXPECT_EQ(unbatched.majorTransfer, 332173.91780821898);
    EXPECT_EQ(unbatched.terminal, 3);
}

} // namespace
} // namespace ap::hostio
