#include "sim/stats.hh"

#include <ostream>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

StatBase::StatBase(StatRegistry &registry, std::string name,
                   std::string desc)
    : registry_(&registry), name_(std::move(name)), desc_(std::move(desc))
{
    registry_->add(this);
}

StatBase::~StatBase()
{
    registry_->remove(this);
}

std::string
StatScalar::render() const
{
    return strformat("%.6g", value_);
}

StatDistribution::StatDistribution(StatRegistry &registry, std::string name,
                                   std::string desc, double lo, double hi,
                                   size_t num_buckets)
    : StatBase(registry, std::move(name), std::move(desc)),
      lo_(lo), hi_(hi),
      bucketWidth_((hi - lo) / static_cast<double>(num_buckets)),
      buckets_(num_buckets, 0)
{
    ENA_ASSERT(hi > lo && num_buckets > 0,
               "bad distribution bounds [", lo, ", ", hi, ")");
}

void
StatDistribution::sample(double v, std::uint64_t count)
{
    // A zero-count sample contributes nothing; in particular it must
    // not poison min_/max_ with a value no real sample ever took.
    if (count == 0)
        return;
    if (samples_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    samples_ += count;
    sum_ += v * static_cast<double>(count);

    if (v < lo_) {
        underflow_ += count;
    } else if (v >= hi_) {
        overflow_ += count;
    } else {
        auto idx = static_cast<size_t>((v - lo_) / bucketWidth_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1; // guard FP edge at hi_
        buckets_[idx] += count;
    }
}

double
StatDistribution::mean() const
{
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
}

std::string
StatDistribution::render() const
{
    return strformat("samples=%llu mean=%.6g min=%.6g max=%.6g",
                     static_cast<unsigned long long>(samples_), mean(),
                     samples_ ? min_ : 0.0, samples_ ? max_ : 0.0);
}

void
StatRegistry::add(StatBase *stat)
{
    auto [it, inserted] = stats_.emplace(stat->name(), stat);
    if (!inserted)
        ENA_FATAL("duplicate stat name '", stat->name(), "'");
}

void
StatRegistry::remove(StatBase *stat)
{
    auto it = stats_.find(stat->name());
    if (it != stats_.end() && it->second == stat)
        stats_.erase(it);
}

StatBase *
StatRegistry::find(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : it->second;
}

double
StatRegistry::value(const std::string &name) const
{
    StatBase *s = find(name);
    if (!s)
        ENA_FATAL("no stat named '", name, "'");
    if (auto *sc = dynamic_cast<StatScalar *>(s))
        return sc->value();
    ENA_FATAL("stat '", name, "' has no scalar value");
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, stat] : stats_) {
        os << name << " " << stat->render() << " # " << stat->desc()
           << "\n";
    }
}

} // namespace ena
