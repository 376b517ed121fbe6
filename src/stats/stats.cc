#include "stats/stats.hh"

#include <cstdio>
#include <sstream>

namespace cpe::stats {

void
Distribution::init(std::int64_t min, std::int64_t max,
                   std::int64_t bucket_size)
{
    CPE_ASSERT(max > min && bucket_size > 0, "bad distribution bounds");
    min_ = min;
    max_ = max;
    bucketSize_ = bucket_size;
    buckets_.assign(
        static_cast<std::size_t>((max - min + bucket_size - 1) / bucket_size),
        0);
}

void
Distribution::reset()
{
    underflow_ = overflow_ = samples_ = 0;
    sum_ = 0.0;
    for (auto &bucket : buckets_)
        bucket = 0;
}

void
StatGroup::addScalar(const std::string &name, Scalar *stat,
                     const std::string &desc)
{
    scalars_.push_back({name, stat, desc});
}

void
StatGroup::addAverage(const std::string &name, Average *stat,
                      const std::string &desc)
{
    averages_.push_back({name, stat, desc});
}

void
StatGroup::addDistribution(const std::string &name, Distribution *stat,
                           const std::string &desc)
{
    dists_.push_back({name, stat, desc});
}

void
StatGroup::addFormula(const std::string &name, std::function<double()> fn,
                      const std::string &desc)
{
    formulas_.push_back({name, std::move(fn), desc});
}

void
StatGroup::addChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::resetAll()
{
    for (auto &entry : scalars_)
        entry.stat->reset();
    for (auto &entry : averages_)
        entry.stat->reset();
    for (auto &entry : dists_)
        entry.stat->reset();
    for (auto *child : children_)
        child->resetAll();
}

StatSnapshot
StatGroup::snapshot() const
{
    StatSnapshot snap;
    for (const auto &entry : scalars_)
        snap.scalars.push_back(entry.stat->value());
    for (const auto &entry : averages_)
        snap.averages.emplace_back(entry.stat->sum(),
                                   entry.stat->count());
    for (const auto &entry : dists_)
        snap.dists.push_back(*entry.stat);
    for (const auto *child : children_) {
        StatSnapshot sub = child->snapshot();
        snap.scalars.insert(snap.scalars.end(), sub.scalars.begin(),
                            sub.scalars.end());
        snap.averages.insert(snap.averages.end(),
                             sub.averages.begin(), sub.averages.end());
        snap.dists.insert(snap.dists.end(), sub.dists.begin(),
                          sub.dists.end());
    }
    return snap;
}

namespace {

/** Restore cursor: consumes snapshot entries in registration order. */
struct RestoreCursor
{
    const StatSnapshot &snap;
    std::size_t scalar = 0, average = 0, dist = 0;
};

} // namespace

void
StatGroup::restore(const StatSnapshot &snap)
{
    // Count this tree's entries first so a shape mismatch fails fast
    // instead of corrupting half the counters.
    StatSnapshot shape = snapshot();
    if (shape.scalars.size() != snap.scalars.size() ||
        shape.averages.size() != snap.averages.size() ||
        shape.dists.size() != snap.dists.size())
        fatal(Msg() << "StatGroup::restore: snapshot shape mismatch "
                       "for group '"
                    << name_ << "'");
    std::function<void(StatGroup &, RestoreCursor &)> apply =
        [&apply](StatGroup &group, RestoreCursor &cursor) {
            for (auto &entry : group.scalars_)
                entry.stat->set(cursor.snap.scalars[cursor.scalar++]);
            for (auto &entry : group.averages_) {
                const auto &[sum, count] =
                    cursor.snap.averages[cursor.average++];
                entry.stat->set(sum, count);
            }
            for (auto &entry : group.dists_)
                *entry.stat = cursor.snap.dists[cursor.dist++];
            for (auto *child : group.children_)
                apply(*child, cursor);
        };
    RestoreCursor cursor{snap};
    apply(*this, cursor);
}

std::string
StatGroup::dump(const std::string &prefix) const
{
    std::ostringstream out;
    std::string base = prefix.empty() ? name_ : prefix + "." + name_;

    auto line = [&](const std::string &name, const std::string &value,
                    const std::string &desc) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%-44s %16s  # %s\n",
                      (base + "." + name).c_str(), value.c_str(),
                      desc.c_str());
        out << buf;
    };

    for (const auto &entry : scalars_)
        line(entry.name, std::to_string(entry.stat->value()), entry.desc);
    for (const auto &entry : averages_) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f", entry.stat->mean());
        line(entry.name, buf, entry.desc);
    }
    for (const auto &entry : formulas_) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f", entry.fn());
        line(entry.name, buf, entry.desc);
    }
    for (const auto &entry : dists_) {
        line(entry.name + ".samples",
             std::to_string(entry.stat->totalSamples()), entry.desc);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f", entry.stat->mean());
        line(entry.name + ".mean", buf, entry.desc);
        const auto &buckets = entry.stat->buckets();
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (!buckets[i])
                continue;
            line(entry.name + "." + std::to_string(entry.stat->bucketMin(i)),
                 std::to_string(buckets[i]), entry.desc);
        }
        if (entry.stat->underflow())
            line(entry.name + ".underflow",
                 std::to_string(entry.stat->underflow()), entry.desc);
        if (entry.stat->overflow())
            line(entry.name + ".overflow",
                 std::to_string(entry.stat->overflow()), entry.desc);
    }
    for (const auto *child : children_)
        out << child->dump(base);
    return out.str();
}

std::string
StatGroup::dumpCsv(const std::string &prefix) const
{
    std::ostringstream out;
    std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &entry : scalars_)
        out << base << "." << entry.name << "," << entry.stat->value()
            << "\n";
    for (const auto &entry : averages_)
        out << base << "." << entry.name << "," << entry.stat->mean()
            << "\n";
    for (const auto &entry : formulas_)
        out << base << "." << entry.name << "," << entry.fn() << "\n";
    for (const auto &entry : dists_) {
        out << base << "." << entry.name << ".samples,"
            << entry.stat->totalSamples() << "\n";
        out << base << "." << entry.name << ".mean,"
            << entry.stat->mean() << "\n";
    }
    for (const auto *child : children_)
        out << child->dumpCsv(base);
    return out.str();
}

Json
StatGroup::toJson() const
{
    Json out = Json::object();
    for (const auto &entry : scalars_)
        out[entry.name] = entry.stat->value();
    for (const auto &entry : averages_)
        out[entry.name] = entry.stat->mean();
    for (const auto &entry : formulas_)
        out[entry.name] = entry.fn();
    for (const auto &entry : dists_) {
        Json dist = Json::object();
        dist["samples"] = entry.stat->totalSamples();
        dist["mean"] = entry.stat->mean();
        Json buckets = Json::object();
        const auto &counts = entry.stat->buckets();
        for (std::size_t i = 0; i < counts.size(); ++i)
            if (counts[i])
                buckets[std::to_string(entry.stat->bucketMin(i))] =
                    counts[i];
        dist["buckets"] = std::move(buckets);
        if (entry.stat->underflow())
            dist["underflow"] = entry.stat->underflow();
        if (entry.stat->overflow())
            dist["overflow"] = entry.stat->overflow();
        out[entry.name] = std::move(dist);
    }
    for (const auto *child : children_)
        out[child->name()] = child->toJson();
    return out;
}

std::string
StatGroup::dumpJson() const
{
    Json out = Json::object();
    out[name_] = toJson();
    return out.dump(2);
}

void
StatGroup::forEachScalar(
    const std::function<void(const std::string &, const Scalar &)> &fn,
    const std::string &prefix) const
{
    std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &entry : scalars_)
        fn(base + "." + entry.name, *entry.stat);
    for (const auto *child : children_)
        child->forEachScalar(fn, base);
}

void
StatGroup::forEachDistribution(
    const std::function<void(const std::string &, const Distribution &)>
        &fn,
    const std::string &prefix) const
{
    std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &entry : dists_)
        fn(base + "." + entry.name, *entry.stat);
    for (const auto *child : children_)
        child->forEachDistribution(fn, base);
}

std::uint64_t
StatGroup::scalarValue(const std::string &name) const
{
    for (const auto &entry : scalars_)
        if (entry.name == name)
            return entry.stat->value();
    panic(Msg() << "no scalar stat '" << name << "' in group " << name_);
}

double
StatGroup::formulaValue(const std::string &name) const
{
    for (const auto &entry : formulas_)
        if (entry.name == name)
            return entry.fn();
    panic(Msg() << "no formula stat '" << name << "' in group " << name_);
}

} // namespace cpe::stats
