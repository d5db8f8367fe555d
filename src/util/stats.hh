/**
 * @file
 * A small named-statistics registry, in the spirit of gem5's stats
 * package. Simulator components register counters/scalars/histograms
 * into a StatGroup; benches and tests read or dump them.
 */

#ifndef AP_UTIL_STATS_HH
#define AP_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "util/histogram.hh"

namespace ap {

/**
 * A flat collection of named statistics. Counters are monotonically
 * increasing event counts; scalars are arbitrary values (e.g. peaks);
 * histograms are log2 latency distributions (see Histogram).
 */
class StatGroup
{
  public:
    /**
     * A handle on one counter for hot call sites. inc(name) builds a
     * key and walks the map on every charge; a handle does that once,
     * on its first charge, and then adds to the slot directly. So the
     * counter still appears in dump()/dumpJson() exactly when it was
     * first charged. reset() frees the slots; the handle notices the
     * group's new epoch and resolves again.
     */
    class Counter
    {
      public:
        /** @p name must outlive the handle (a string literal). */
        Counter(StatGroup& group, const char* name)
            : group_(&group), name_(name)
        {
        }

        /** Add @p delta, exactly as group.inc(name, delta) would. */
        void
        inc(uint64_t delta = 1)
        {
            if (epoch_ != group_->epoch_) [[unlikely]]
                resolve();
            *slot_ += delta;
        }

      private:
        /** Find or create the slot (out of line: inc() stays small). */
        void resolve();

        StatGroup* group_;
        const char* name_;
        uint64_t* slot_ = nullptr;
        uint64_t epoch_ = 0; ///< group epochs start at 1
    };

    StatGroup() = default;
    // Counter handles point into the group.
    StatGroup(const StatGroup&) = delete;
    StatGroup& operator=(const StatGroup&) = delete;

    /** Add @p delta to counter @p name (creating it at zero). */
    void
    inc(const std::string& name, uint64_t delta = 1)
    {
        counters[name] += delta;
    }

    /** Set scalar @p name to @p value. */
    void
    set(const std::string& name, double value)
    {
        scalars[name] = value;
    }

    /** Set scalar @p name to max(current, value). */
    void
    setMax(const std::string& name, double value)
    {
        auto [it, inserted] = scalars.try_emplace(name, value);
        if (!inserted && it->second < value)
            it->second = value;
    }

    /** Record @p value into histogram @p name (creating it empty). */
    void
    recordValue(const std::string& name, double value)
    {
        histograms[name].record(value);
    }

    /** Read counter @p name; returns zero if never incremented. */
    uint64_t
    counter(const std::string& name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /** Read scalar @p name; returns zero if never set. */
    double
    scalar(const std::string& name) const
    {
        auto it = scalars.find(name);
        return it == scalars.end() ? 0.0 : it->second;
    }

    /** Histogram @p name, or nullptr if nothing was recorded. */
    const Histogram*
    findHistogram(const std::string& name) const
    {
        auto it = histograms.find(name);
        return it == histograms.end() ? nullptr : &it->second;
    }

    /** Histogram @p name, creating it empty (for direct merging). */
    Histogram& histogram(const std::string& name)
    {
        return histograms[name];
    }

    /** All histograms, sorted by name. */
    const std::map<std::string, Histogram>& allHistograms() const
    {
        return histograms;
    }

    /** Reset all statistics to empty. */
    void
    reset()
    {
        counters.clear();
        scalars.clear();
        histograms.clear();
        ++epoch_;
    }

    /** Dump every statistic, one "name value" per line; histograms
     * expand to derived name.{count,min,max,mean,p50,p95,p99} lines. */
    void dump(std::ostream& os) const;

    /**
     * Dump every statistic as one deterministic JSON object:
     * {"counters":{...},"scalars":{...},"histograms":{...}} with keys
     * sorted (map order) and doubles printed with round-trip
     * precision, so two identical seeded runs produce byte-identical
     * output.
     */
    void dumpJson(std::ostream& os) const;

  private:
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> scalars;
    std::map<std::string, Histogram> histograms;
    /** Bumped by reset(), which frees every Counter's slot. */
    uint64_t epoch_ = 1;
};

} // namespace ap

#endif // AP_UTIL_STATS_HH
