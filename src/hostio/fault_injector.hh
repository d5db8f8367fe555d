/**
 * @file
 * Deterministic, seeded fault injection for the host I/O path. The
 * injector sits between HostIoEngine and the BackingStore and decides,
 * per transfer attempt, whether the attempt fails transiently, fails
 * persistently, or completes late. Decisions are pure functions of
 * (seed, file, offset, attempt), so a run with a given seed is
 * bit-reproducible and a retried attempt draws independently — a
 * transient fault can (and deterministically will) clear on retry.
 */

#ifndef AP_HOSTIO_FAULT_INJECTOR_HH
#define AP_HOSTIO_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "hostio/backing_store.hh"

namespace ap::hostio {

/** What the injector decided for one transfer attempt. */
enum class Fault {
    None,       ///< the attempt proceeds normally
    Transient,  ///< the attempt fails; a retry may succeed
    Persistent, ///< the attempt fails; retrying is pointless
};

/**
 * Injects read/write faults and completion delays into the engine.
 * Attach with HostIoEngine::setFaultInjector; a null injector means no
 * faults. Host-side state only — the injector itself costs no
 * simulated time.
 */
class FaultInjector
{
  public:
    /** Probability knobs. Rates are in [0, 1]. */
    struct Config
    {
        uint64_t seed = 1;
        double transientReadRate = 0.0;
        double transientWriteRate = 0.0;
        /** Fraction of attempts whose completion is delayed. */
        double delayRate = 0.0;
        /** Extra completion latency (simulated cycles) when delayed. */
        double delayCycles = 0.0;
    };

    FaultInjector() = default;
    explicit FaultInjector(const Config& cfg) : cfg_(cfg) {}

    /** The random knobs in force. */
    const Config& config() const { return cfg_; }

    /** Make every read of a byte range overlapping (f, off, len) fail. */
    void
    failReads(FileId f, uint64_t off, uint64_t len)
    {
        badReads.push_back(Range{f, off, len});
    }

    /** Make every write overlapping (f, off, len) fail. */
    void
    failWrites(FileId f, uint64_t off, uint64_t len)
    {
        badWrites.push_back(Range{f, off, len});
    }

    /** Drop all persistent fault ranges (the device "recovers"). */
    void
    clearPersistent()
    {
        badReads.clear();
        badWrites.clear();
    }

    /** Decision for read attempt @p attempt of (f, off, len). */
    Fault
    onRead(FileId f, uint64_t off, uint64_t len, int attempt) const
    {
        if (overlaps(badReads, f, off, len))
            return Fault::Persistent;
        if (draw(f, off, attempt, kReadSalt) < cfg_.transientReadRate)
            return Fault::Transient;
        return Fault::None;
    }

    /** Decision for write attempt @p attempt of (f, off, len). */
    Fault
    onWrite(FileId f, uint64_t off, uint64_t len, int attempt) const
    {
        if (overlaps(badWrites, f, off, len))
            return Fault::Persistent;
        if (draw(f, off, attempt, kWriteSalt) < cfg_.transientWriteRate)
            return Fault::Transient;
        return Fault::None;
    }

    /** Extra completion latency for this attempt (0 if on time). */
    double
    completionDelay(FileId f, uint64_t off, int attempt) const
    {
        if (cfg_.delayRate <= 0.0)
            return 0.0;
        if (draw(f, off, attempt, kDelaySalt) < cfg_.delayRate)
            return cfg_.delayCycles;
        return 0.0;
    }

  private:
    struct Range
    {
        FileId file;
        uint64_t off;
        uint64_t len;
    };

    static bool
    overlaps(const std::vector<Range>& rs, FileId f, uint64_t off,
             uint64_t len)
    {
        for (const Range& r : rs)
            if (r.file == f && off < r.off + r.len && r.off < off + len)
                return true;
        return false;
    }

    static constexpr uint64_t kReadSalt = 0x72656164; // "read"
    static constexpr uint64_t kWriteSalt = 0x77726974; // "writ"
    static constexpr uint64_t kDelaySalt = 0x64656c61; // "dela"

    /** Uniform [0,1) draw keyed on (seed, file, off, attempt, salt). */
    double draw(FileId f, uint64_t off, int attempt, uint64_t salt) const;

    Config cfg_;
    std::vector<Range> badReads;
    std::vector<Range> badWrites;
};

} // namespace ap::hostio

#endif // AP_HOSTIO_FAULT_INJECTOR_HH
