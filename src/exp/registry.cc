#include "exp/registry.hh"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <numeric>

#include "util/error.hh"
#include "util/logging.hh"

namespace cpe::exp {

namespace {

/** Levenshtein distance, for the unknown-id suggestion. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    std::iota(row.begin(), row.end(), std::size_t{0});
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t next = std::min(
                {row[j] + 1, row[j - 1] + 1,
                 diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = row[j];
            row[j] = next;
        }
    }
    return row[b.size()];
}

/**
 * Canonical ordering key: tables (T*) before figures (F*), numeric
 * within a kind, anything unconventional after, alphabetically.
 */
std::pair<int, long>
orderKey(const std::string &id)
{
    if (id.size() >= 2 && (id[0] == 'T' || id[0] == 'F')) {
        char *end = nullptr;
        long number = std::strtol(id.c_str() + 1, &end, 10);
        if (end && *end == '\0')
            return {id[0] == 'T' ? 0 : 1, number};
    }
    return {2, 0};
}

bool
orderBefore(const Experiment &a, const Experiment &b)
{
    auto ka = orderKey(a.id), kb = orderKey(b.id);
    if (ka != kb)
        return ka < kb;
    return a.id < b.id;
}

} // namespace

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment experiment)
{
    if (experiment.id.empty() || !experiment.grids || !experiment.run)
        panic(Msg() << "ExperimentRegistry: experiment '" << experiment.id
                    << "' must have an id, declared grids, and a run "
                       "body");
    if (has(experiment.id))
        panic(Msg() << "ExperimentRegistry: duplicate experiment id '"
                    << experiment.id << "'");
    // At an empty suite a suite-driven grid has no rows: empty means
    // the suite.
    experiment.workloads = experiment.gatedGrid({}).workloads;
    experiments_.push_back(std::move(experiment));
}

bool
ExperimentRegistry::has(const std::string &id) const
{
    return find(id) != nullptr;
}

const Experiment *
ExperimentRegistry::find(const std::string &id) const
{
    for (const auto &experiment : experiments_)
        if (experiment.id == id)
            return &experiment;
    return nullptr;
}

const Experiment &
ExperimentRegistry::get(const std::string &id) const
{
    if (const Experiment *experiment = find(id))
        return *experiment;
    std::string known;
    std::string closest;
    std::size_t closest_distance = ~std::size_t{0};
    for (const auto &known_id : ids()) {
        if (!known.empty())
            known += ", ";
        known += known_id;
        std::size_t distance = editDistance(id, known_id);
        if (distance < closest_distance) {
            closest_distance = distance;
            closest = known_id;
        }
    }
    Msg message;
    message << "unknown experiment '" << id << "'";
    // Only suggest near misses — a wild guess helps nobody.
    if (!closest.empty() && closest_distance <= 2)
        message << " (did you mean '" << closest << "'?)";
    message << "; registered experiments: " << known;
    throw ConfigError(message);
}

std::vector<std::string>
ExperimentRegistry::ids() const
{
    std::vector<std::string> out;
    for (const auto *experiment : all())
        out.push_back(experiment->id);
    return out;
}

std::vector<const Experiment *>
ExperimentRegistry::all() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &experiment : experiments_)
        out.push_back(&experiment);
    std::sort(out.begin(), out.end(),
              [](const Experiment *a, const Experiment *b) {
                  return orderBefore(*a, *b);
              });
    return out;
}

} // namespace cpe::exp
