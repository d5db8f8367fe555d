/**
 * @file
 * The lifetime ledger both translation levels share: the software TLB
 * keeps one per threadblock (a record per entry), the page cache one
 * per cache (a record per frame). A record opens when a mapping is
 * installed, counts the hits it absorbs, and retires when it leaves,
 * charged to exactly one reason of the owner's taxonomy.
 *
 * Following the Dead on Arrival paper (PAPERS.md), every retirement
 * bumps `<prefix>.evict.<reason>`, and one with zero hits also bumps
 * `<prefix>.doa.<reason>`. The ledger also counts opens, records the
 * open-to-retire lifetime histogram, sums the hits of retired records,
 * keeps the live count, and throttles the owner's trace samples.
 * Host bookkeeping only: it costs no simulated cycles or device bytes.
 * The ledger charges through a Stats that builds its owner's names
 * once and binds a handle on each to one StatGroup, so open() and
 * retire() build no string. Ledgers that charge the same names into
 * the same group share one Stats: every TLB of a runtime does, so
 * building one builds no name and resolves no handle.
 */

#ifndef AP_SIM_LIFETIME_LEDGER_HH
#define AP_SIM_LIFETIME_LEDGER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"
#include "util/stats.hh"

namespace ap::sim {

/** Per-slot lifetimes under an @p N-reason taxonomy enum @p Reason. */
template <typename Reason, size_t N>
class LifetimeLedger
{
  public:
    /** One slot's open lifetime (or the last one, once retired). */
    struct Record
    {
        Cycles openCycle = 0;    ///< when the mapping was installed
        Cycles lastHitCycle = 0; ///< latest hit; openCycle before any
        uint64_t hits = 0;       ///< hits absorbed since open
        bool live = false;       ///< the slot holds a mapping
    };

    /** The stat names of one owner and a handle on each. */
    struct Stats
    {
        /**
         * @param st       the group every charge lands in
         * @param prefix   stat prefix of the owner ("tlb", "pagecache")
         * @param reasons  printable reason names, indexed by Reason
         * @param opens    counter bumped by every open (a literal)
         * @param lifetime histogram of open-to-retire cycles (a literal)
         */
        Stats(StatGroup& st, const std::string& prefix,
              const std::array<const char*, N>& reasons, const char* opens,
              const char* lifetime)
            : evictNames(names(prefix + ".evict.", reasons)),
              doaNames(names(prefix + ".doa.", reasons)),
              evict(st.handles<StatGroup::Counter>(evictNames)),
              doa(st.handles<StatGroup::Counter>(doaNames)),
              opens(st, opens), lifetime(st, lifetime)
        {
        }

        // The handles point into this Stats' own name strings.
        Stats(const Stats&) = delete;
        Stats& operator=(const Stats&) = delete;

        std::array<std::string, N> evictNames; ///< <prefix>.evict.<reason>
        std::array<std::string, N> doaNames;   ///< <prefix>.doa.<reason>
        std::array<StatGroup::Counter, N> evict;
        std::array<StatGroup::Counter, N> doa;
        StatGroup::Counter opens;
        StatGroup::Hist lifetime;

      private:
        /** @p head followed by each reason name. */
        static std::array<std::string, N>
        names(const std::string& head,
              const std::array<const char*, N>& reasons)
        {
            std::array<std::string, N> out;
            for (size_t i = 0; i < N; ++i)
                out[i] = head + reasons[i];
            return out;
        }
    };

    /**
     * @param stats where every charge lands; must outlive the ledger
     * @param slots number of slots
     */
    LifetimeLedger(Stats& stats, size_t slots) : stats_(&stats), recs(slots)
    {
    }

    /** Open a fresh lifetime on @p slot at @p now. */
    void
    open(size_t slot, Cycles now)
    {
        Record& r = recs[slot];
        if (!r.live)
            ++live_;
        r = Record{now, now, 0, true};
        stats_->opens.inc();
    }

    /**
     * Count a hit on @p slot at @p now (nothing if it is not live).
     * @return the record as it was before the hit
     */
    Record
    hit(size_t slot, Cycles now)
    {
        Record& r = recs[slot];
        const Record before = r;
        if (r.live) {
            r.lastHitCycle = now;
            r.hits++;
        }
        return before;
    }

    /**
     * Retire @p slot at @p now for @p reason (nothing if it is not
     * live).
     * @return the record as it was at retirement
     */
    Record
    retire(size_t slot, Reason reason, Cycles now)
    {
        Record& r = recs[slot];
        const Record rec = r;
        if (!rec.live)
            return rec;
        const size_t i = static_cast<size_t>(reason);
        stats_->evict[i].inc();
        if (rec.hits == 0)
            stats_->doa[i].inc();
        stats_->lifetime.record(now - rec.openCycle);
        retiredHits_ += rec.hits;
        r.live = false;
        --live_;
        return rec;
    }

    /**
     * The owner's trace-sample throttle: true, restarting the window,
     * when tracing is on and no sample was taken in the last
     * kCounterIntervalCycles (the first sample always passes).
     */
    bool
    sampleDue(const Tracer& tr, Cycles now)
    {
        if (!tr.enabled() ||
            (sampled && now - lastSample < kCounterIntervalCycles))
            return false;
        sampled = true;
        lastSample = now;
        return true;
    }

    /** Slots currently live. */
    size_t live() const { return live_; }

    /** Hits summed over every retired record. */
    uint64_t retiredHits() const { return retiredHits_; }

  private:
    Stats* stats_;
    std::vector<Record> recs;
    size_t live_ = 0;
    uint64_t retiredHits_ = 0;
    Cycles lastSample = 0; ///< cycle of the previous sample
    bool sampled = false;  ///< a sample has been taken
};

} // namespace ap::sim

#endif // AP_SIM_LIFETIME_LEDGER_HH
