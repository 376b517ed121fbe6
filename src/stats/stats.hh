/**
 * @file
 * Lightweight statistics package in the spirit of gem5's Stats: named
 * scalar counters, averages, distributions, and derived formulas, all
 * registered with a StatGroup that can dump itself as text or CSV.
 *
 * Every simulator component owns a StatGroup and declares its counters
 * in the constructor, so a full run's statistics can be enumerated,
 * reset between warmup and measurement, and diffed across configs.
 */

#ifndef CPE_STATS_STATS_HH
#define CPE_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"
#include "util/logging.hh"

namespace cpe::stats {

/** A named 64-bit event counter. */
class Scalar
{
  public:
    Scalar() = default;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    Scalar &operator+=(std::uint64_t delta) { value_ += delta; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }
    /** Restore a snapshotted value (StatGroup::restore). */
    void set(std::uint64_t value) { value_ = value; }

  private:
    std::uint64_t value_ = 0;
};

/** A running average: sum / count of observed samples. */
class Average
{
  public:
    void
    sample(double value)
    {
        sum_ += value;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    void reset() { sum_ = 0.0; count_ = 0; }
    /** Restore a snapshotted state (StatGroup::restore). */
    void set(double sum, std::uint64_t count)
    {
        sum_ = sum;
        count_ = count;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * A bucketed distribution over [min, max) with uniform bucket width,
 * plus underflow/overflow buckets.
 */
class Distribution
{
  public:
    Distribution() = default;

    /** Configure the histogram range; must be called before sampling. */
    void init(std::int64_t min, std::int64_t max, std::int64_t bucket_size);

    /** Inline: the core samples every cycle and on every load. */
    void
    sample(std::int64_t value, std::uint64_t count = 1)
    {
        CPE_ASSERT(!buckets_.empty(), "Distribution::sample before init");
        samples_ += count;
        sum_ += static_cast<double>(value) * count;
        if (value < min_) {
            underflow_ += count;
        } else if (value >= max_) {
            overflow_ += count;
        } else {
            buckets_[static_cast<std::size_t>((value - min_) /
                                              bucketSize_)] += count;
        }
    }

    std::uint64_t totalSamples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
    /** Exact running sum of sampled values (interval-delta support). */
    double sum() const { return sum_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::int64_t bucketMin(std::size_t i) const
    {
        return min_ + static_cast<std::int64_t>(i) * bucketSize_;
    }
    std::int64_t bucketSize() const { return bucketSize_; }

    void reset();

  private:
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
    std::int64_t bucketSize_ = 1;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
};

/**
 * A value snapshot of a StatGroup tree (StatGroup::snapshot).  The
 * phase engine pauses measurement by snapshotting and resumes by
 * restoring, so everything accumulated in between — fast-forward and
 * detailed-warmup pollution — vanishes from the totals, and the final
 * stats are the exact union of the measurement intervals.  Entries
 * are stored in registration order, so a snapshot is only valid for
 * the exact group tree that produced it.
 */
struct StatSnapshot
{
    std::vector<std::uint64_t> scalars;
    std::vector<std::pair<double, std::uint64_t>> averages;
    std::vector<Distribution> dists;
};

/**
 * A named collection of statistics.  Components create one, register
 * their counters with addScalar()/addAverage()/addDistribution()/
 * addFormula(), and the reporter walks the group tree at dump time.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar; @p desc is the one-line legend. */
    void addScalar(const std::string &name, Scalar *stat,
                   const std::string &desc);

    void addAverage(const std::string &name, Average *stat,
                    const std::string &desc);

    void addDistribution(const std::string &name, Distribution *stat,
                         const std::string &desc);

    /**
     * Register a derived value computed at dump time (e.g. IPC =
     * instructions / cycles).  The callable must stay valid for the
     * group's lifetime.
     */
    void addFormula(const std::string &name, std::function<double()> fn,
                    const std::string &desc);

    /** Attach a child group (not owned). */
    void addChild(StatGroup *child);

    const std::string &name() const { return name_; }

    /** Zero every registered statistic, recursively. */
    void resetAll();

    /** Capture every registered statistic's value, recursively, in
     *  registration order (formulas recompute and need no state). */
    StatSnapshot snapshot() const;

    /** Restore a snapshot() taken from this same group tree; panics
     *  when the shapes disagree (the tree changed in between). */
    void restore(const StatSnapshot &snap);

    /**
     * Render "name value # desc" lines, gem5 stats.txt style, with the
     * group name as a dotted prefix.
     */
    std::string dump(const std::string &prefix = "") const;

    /**
     * Render "name,value" CSV rows (scalars, averages, and formulas;
     * distributions export their sample count and mean), recursively.
     */
    std::string dumpCsv(const std::string &prefix = "") const;

    /**
     * JSON mirror of dump(): one object per group with stats in
     * registration order (scalars, averages, formulas, distributions)
     * and child groups nested under their names — so key order is
     * stable across runs.  Distributions export samples, mean,
     * non-empty buckets (keyed by bucket minimum), and
     * underflow/overflow when present.
     */
    Json toJson() const;

    /** Serialize toJson() under the group's name, pretty-printed. */
    std::string dumpJson() const;

    /**
     * Visit every registered scalar, depth-first through child groups,
     * with its full dotted name — the same "<group>...<stat>" naming
     * dump() renders.  @p prefix is prepended like dump()'s.  The
     * interval sampler uses this to snapshot a whole stats tree.
     */
    void forEachScalar(
        const std::function<void(const std::string &, const Scalar &)>
            &fn,
        const std::string &prefix = "") const;

    /** Same traversal for distributions. */
    void forEachDistribution(
        const std::function<void(const std::string &,
                                 const Distribution &)> &fn,
        const std::string &prefix = "") const;

    /** Look up a scalar's current value by dotted leaf name; panics if
     * absent (test helper). */
    std::uint64_t scalarValue(const std::string &name) const;

    /** Look up a formula's current value by leaf name; panics if absent. */
    double formulaValue(const std::string &name) const;

  private:
    struct ScalarEntry { std::string name; Scalar *stat; std::string desc; };
    struct AverageEntry { std::string name; Average *stat; std::string desc; };
    struct DistEntry
    {
        std::string name;
        Distribution *stat;
        std::string desc;
    };
    struct FormulaEntry
    {
        std::string name;
        std::function<double()> fn;
        std::string desc;
    };

    std::string name_;
    std::vector<ScalarEntry> scalars_;
    std::vector<AverageEntry> averages_;
    std::vector<DistEntry> dists_;
    std::vector<FormulaEntry> formulas_;
    std::vector<StatGroup *> children_;
};

} // namespace cpe::stats

#endif // CPE_STATS_STATS_HH
