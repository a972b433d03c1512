/**
 * @file
 * Lightweight statistics package for the event-driven simulator, in the
 * spirit of gem5's stats: named scalars and distributions registered in
 * a per-simulation registry and dumped as a sorted report.
 */

#ifndef ENA_SIM_STATS_HH
#define ENA_SIM_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace ena {

class StatRegistry;

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatRegistry &registry, std::string name, std::string desc);
    virtual ~StatBase();

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** One-line textual rendering of the value(s). */
    virtual std::string render() const = 0;

  private:
    StatRegistry *registry_;
    std::string name_;
    std::string desc_;
};

/** A single accumulating value (count, bytes, ticks...). */
class StatScalar : public StatBase
{
  public:
    using StatBase::StatBase;

    StatScalar &operator+=(double v) { value_ += v; return *this; }
    StatScalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }

    double value() const { return value_; }

    std::string render() const override;

  private:
    double value_ = 0.0;
};

/** Sampled distribution with fixed-width buckets plus summary stats. */
class StatDistribution : public StatBase
{
  public:
    StatDistribution(StatRegistry &registry, std::string name,
                     std::string desc, double lo, double hi,
                     size_t num_buckets);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t samples() const { return samples_; }
    double mean() const;
    double minSample() const { return min_; }
    double maxSample() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t underflows() const { return underflow_; }
    std::uint64_t overflows() const { return overflow_; }

    std::string render() const override;

  private:
    double lo_;
    double hi_;
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Owner of all statistics for one simulation. */
class StatRegistry
{
  public:
    StatRegistry() = default;

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Called by StatBase's constructor; rejects duplicate names. */
    void add(StatBase *stat);

    /** Called by StatBase's destructor. */
    void remove(StatBase *stat);

    /** Find by exact name; nullptr when absent. */
    StatBase *find(const std::string &name) const;

    /** Scalar value by name; fatal() when absent or not a scalar. */
    double value(const std::string &name) const;

    /** Dump "name value # desc" lines sorted by name. */
    void dump(std::ostream &os) const;

    size_t size() const { return stats_.size(); }

  private:
    std::map<std::string, StatBase *> stats_;
};

} // namespace ena

#endif // ENA_SIM_STATS_HH
