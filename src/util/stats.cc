#include "util/stats.hh"

#include <limits>
#include <type_traits>

#include "util/json.hh"

namespace ap {

namespace {

/** The derived values a histogram expands to in both dump formats. */
struct HistSummary
{
    const char* key;
    double value;
};

std::array<HistSummary, 7>
summarize(const Histogram& h)
{
    return {{{"count", static_cast<double>(h.count())},
             {"min", h.min()},
             {"max", h.max()},
             {"mean", h.mean()},
             {"p50", h.quantile(0.50)},
             {"p95", h.quantile(0.95)},
             {"p99", h.quantile(0.99)}}};
}

} // namespace

template <typename T>
void
StatGroup::Handle<T>::resolve()
{
    if constexpr (std::is_same_v<T, uint64_t>)
        slot_ = &group_->counters[name_];
    else if constexpr (std::is_same_v<T, Histogram>)
        slot_ = &group_->histograms[name_];
    else
        slot_ = &group_->scalars
                     .try_emplace(name_,
                                  -std::numeric_limits<double>::infinity())
                     .first->second;
    epoch_ = group_->epoch_;
}

template class StatGroup::Handle<uint64_t>;
template class StatGroup::Handle<Histogram>;
template class StatGroup::Handle<double>;

void
StatGroup::dump(std::ostream& os) const
{
    for (const auto& [name, value] : counters)
        os << name << " " << value << "\n";
    for (const auto& [name, value] : scalars)
        os << name << " " << value << "\n";
    for (const auto& [name, h] : histograms)
        for (const auto& [key, value] : summarize(h))
            os << name << "." << key << " " << value << "\n";
}

void
StatGroup::dumpJson(std::ostream& os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
        if (!first)
            os << ",";
        first = false;
        json::quote(os, name);
        os << ":" << value;
    }
    os << "},\"scalars\":{";
    first = true;
    for (const auto& [name, value] : scalars) {
        if (!first)
            os << ",";
        first = false;
        json::quote(os, name);
        os << ":";
        json::number(os, value);
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms) {
        if (!first)
            os << ",";
        first = false;
        json::quote(os, name);
        os << ":{";
        bool innerFirst = true;
        for (const auto& [key, value] : summarize(h)) {
            if (!innerFirst)
                os << ",";
            innerFirst = false;
            json::quote(os, key);
            os << ":";
            json::number(os, value);
        }
        os << "}";
    }
    os << "}}\n";
}

} // namespace ap
