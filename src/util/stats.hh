/**
 * @file
 * A small named-statistics registry, in the spirit of gem5's stats
 * package. Simulator components register counters/scalars/histograms
 * into a StatGroup; benches and tests read or dump them.
 */

#ifndef AP_UTIL_STATS_HH
#define AP_UTIL_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "util/histogram.hh"

namespace ap {

/**
 * A flat collection of named statistics. Counters are monotonically
 * increasing event counts; scalars are arbitrary values (e.g. peaks);
 * histograms are log2 latency distributions (see Histogram).
 *
 * Charges by name (inc, setMax, recordValue) build a key and walk a
 * map on every call; they serve tests, once-per-launch sites, error
 * and teardown paths, and names composed at run time (the registry's
 * per-tenant stats). Every charge made per instruction,
 * fault, page move, host-IO request or served request goes through a
 * handle (Counter, Hist, Peak) held by the component that charges it.
 * All three are one mechanism: the handle resolves its slot on its
 * first charge, and again after reset(), so a stat still appears in
 * dump() and dumpJson() exactly when it is first charged, by name or
 * by handle.
 */
class StatGroup
{
  public:
    /**
     * The handle mechanism behind Counter, Hist and Peak: a slot of
     * type @p T in the group's map for that type, found or created by
     * name on the first charge and again after reset() frees it (the
     * handle notices the group's new epoch). Trivially destructible.
     */
    template <typename T>
    class Handle
    {
      public:
        /**
         * @p name must outlive the handle: a string literal, a
         * process-wide name table, or a string its owner keeps beside
         * the handle. Lookup is by content, never by address.
         */
        Handle(StatGroup& group, const char* name)
            : group_(&group), name_(name)
        {
        }

      protected:
        /** The slot this charge lands in. */
        T&
        slot()
        {
            if (epoch_ != group_->epoch_) [[unlikely]]
                resolve();
            return *slot_;
        }

      private:
        /** Find or create the slot (out of line and cold: it runs once
         * per handle per epoch, so charges stay small). */
        [[gnu::cold]] void resolve();

        StatGroup* group_;
        const char* name_;
        T* slot_ = nullptr;
        uint64_t epoch_ = 0; ///< group epochs start at 1
    };

    /** A counter handle: inc() as group.inc(name, delta) would. */
    class Counter : public Handle<uint64_t>
    {
      public:
        using Handle::Handle;

        void inc(uint64_t delta = 1) { slot() += delta; }
    };

    /** A histogram handle: record() as group.recordValue(name, v). */
    class Hist : public Handle<Histogram>
    {
      public:
        using Handle::Handle;

        void record(double value) { slot().record(value); }
    };

    /** A high-water scalar handle: setMax() as group.setMax(name, v). */
    class Peak : public Handle<double>
    {
      public:
        using Handle::Handle;

        void
        setMax(double value)
        {
            // A slot this charge creates starts at -inf, so it takes
            // @p value, as setMax by name creates it at @p value.
            double& s = slot();
            if (s < value)
                s = value;
        }
    };

    /**
     * One @p H handle per name in @p names, in order; the names must
     * outlive the handles.
     */
    template <typename H, size_t N>
    std::array<H, N>
    handles(const std::array<std::string, N>& names)
    {
        return [&]<size_t... I>(std::index_sequence<I...>) {
            return std::array<H, N>{H(*this, names[I].c_str())...};
        }(std::make_index_sequence<N>{});
    }

    StatGroup() = default;
    // Handles point into the group.
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
    /** Bumped by reset(), which frees every handle's slot. */
    uint64_t epoch_ = 1;
};

} // namespace ap

#endif // AP_UTIL_STATS_HH
