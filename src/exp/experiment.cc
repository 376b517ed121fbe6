#include "exp/experiment.hh"

#include <algorithm>
#include <ostream>

#include "obs/profiler.hh"
#include "sim/config_file.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

namespace cpe::exp {

namespace {

/** The installed fault plan: (workload, kind) pairs.  Set before a
 *  sweep starts, never during one (same discipline as
 *  SweepRunner::setDefaultJobs). */
std::vector<std::pair<std::string, std::string>> faultPlan;

/** The installed observability settings (see setObservability). */
obs::TraceSink *obsSink = nullptr;
Cycle obsSampleCycles = 0;
unsigned obsProfileTop = 0;

/** The installed functional-trace cache (see setTraceCache). */
sim::TraceCache *traceCache = nullptr;

/** The installed sampled-simulation parameters (see setSampling). */
sim::SampleParams sampleParams;

void
applyFaults(sim::SimConfig &config)
{
    for (const auto &[workload, kind] : faultPlan) {
        if (config.workloadName != workload)
            continue;
        if (kind == "config") {
            // Zero associativity: caught by SimConfig::validate()
            // before the machine is built.
            config.core.dcache.cache.assoc = 0;
        } else if (kind == "hang") {
            // A watchdog this tight trips during pipeline fill: the
            // run dies with a ProgressError carrying a snapshot, the
            // way a genuinely wedged machine would.
            config.core.noCommitCycleLimit = 2;
        }
    }
}

} // namespace

namespace {

/** The functional work @p runs saved via the trace cache, as a
 *  one-at-a-time sweep of that grid would have counted it. */
sim::TraceCache::Stats
savingsOf(const GridRuns &runs)
{
    sim::TraceCache::Stats saved;
    for (const auto &run : runs.runs)
        saved += run.cacheWork;
    return saved;
}

/** A grid's "replay" member. */
Json
replayJson(const sim::TraceCache::Stats &saved)
{
    Json out = Json::object();
    out["captures"] = saved.captures;
    out["replays"] = saved.replays;
    out["insts_skipped"] = saved.instsSkipped;
    return out;
}

void
printReplaySummary(std::ostream &out, const std::string &experiment_id,
                   const std::string &key,
                   const sim::TraceCache::Stats &saved)
{
    out << "[replay] " << experiment_id << "/" << key << ": "
        << saved.captures << " capture(s), " << saved.replays
        << " replay(s), " << saved.instsSkipped
        << " functional insts skipped\n\n";
}

/** The machine a config describes, as the result memo keys it. */
std::string
machineText(const sim::SimConfig &config)
{
    sim::SimConfig machine = config;
    machine.label.clear();
    return sim::toMachineFile(machine);
}

} // namespace

std::vector<std::pair<std::string, std::string>>
faultInjection()
{
    return faultPlan;
}

void
setFaultInjection(std::vector<std::pair<std::string, std::string>> plan)
{
    // Reject unknown kinds here, at installation time, with a
    // structured error — not deep in a sweep where a typo would
    // silently inject nothing.
    for (const auto &[workload, kind] : plan)
        if (kind != "config" && kind != "hang")
            throw ConfigError("unknown fault-injection kind '" + kind +
                              "' for workload '" + workload +
                              "' (valid kinds: config, hang)");
    faultPlan = std::move(plan);
}

void
setObservability(obs::TraceSink *sink, Cycle sample_cycles,
                 unsigned profile_top)
{
    obsSink = sink;
    obsSampleCycles = sample_cycles;
    obsProfileTop = profile_top;
}

void
setTraceCache(sim::TraceCache *cache)
{
    traceCache = cache;
}

void
setSampling(const sim::SampleParams &params)
{
    sampleParams = params;
}

std::vector<sim::SimConfig>
suiteConfigs(const std::vector<Variant> &variants,
             const std::vector<std::string> &workloads)
{
    std::vector<sim::SimConfig> configs;
    configs.reserve(workloads.size() * variants.size());
    for (const auto &name : workloads) {
        for (const auto &variant : variants) {
            sim::SimConfig config = sim::SimConfig::defaults();
            config.workloadName = name;
            config.workload.osLevel = variant.osLevel;
            config.core.dcache.tech = variant.tech;
            config.label = variant.label;
            if (variant.tweak)
                variant.tweak(config);
            // Event traces and interval timeseries need a full-detail
            // run: a variant that samples by design (F13's) runs
            // without them.  The global --sample-mode comes after, so
            // combining it with --trace still fails validation.
            if (!config.sample.enabled()) {
                if (obsSink)
                    config.obs.traceSink = obsSink;
                if (obsSampleCycles)
                    config.obs.sampleCycles = obsSampleCycles;
            }
            if (obsProfileTop)
                config.obs.profileTop = obsProfileTop;
            if (sampleParams.enabled())
                config.sample = sampleParams;
            config.traceCache = traceCache;
            if (!faultPlan.empty())
                applyFaults(config);
            configs.push_back(std::move(config));
        }
    }
    return configs;
}

GridSpec
Experiment::gatedGrid(const std::vector<std::string> &suite) const
{
    auto specs = grids(suite);
    auto gated = [](const GridSpec &spec) { return spec.gate != Gate::Off; };
    auto it = std::find_if(specs.begin(), specs.end(), gated);
    if (it == specs.end() ||
        std::find_if(std::next(it), specs.end(), gated) != specs.end())
        panic(Msg() << id << " must gate exactly one of its grids");
    return std::move(*it);
}

std::vector<GridRuns>
runGrids(const std::vector<GridSpec> &grids)
{
    VerboseScope quiet(false);
    std::vector<GridRuns> out(grids.size());
    std::vector<sim::SimConfig> configs;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        out[g].configs = suiteConfigs(grids[g].variants, grids[g].workloads);
        configs.insert(configs.end(), out[g].configs.begin(),
                       out[g].configs.end());
    }
    auto runs = sim::SweepRunner().runSchedule(configs);
    auto next = runs.begin();
    for (auto &grid : out) {
        auto end = next + static_cast<std::ptrdiff_t>(grid.configs.size());
        grid.runs.assign(std::make_move_iterator(next),
                         std::make_move_iterator(end));
        next = end;
    }
    return out;
}

Schedule::Schedule(const std::vector<const Experiment *> &experiments,
                   const std::vector<std::string> &suite)
{
    std::vector<std::pair<std::string, std::string>> keys;
    std::vector<GridSpec> specs;
    for (const auto *experiment : experiments) {
        for (auto &spec : experiment->grids(suite)) {
            if (spec.gate == Gate::Only)
                continue;
            keys.emplace_back(experiment->id, spec.key);
            specs.push_back(std::move(spec));
        }
    }
    auto runs = runGrids(specs);
    for (std::size_t g = 0; g < specs.size(); ++g)
        grids_.emplace(keys[g], std::move(runs[g]));
}

const GridRuns *
Schedule::find(const std::string &experiment, const std::string &key) const
{
    auto it = grids_.find({experiment, key});
    return it == grids_.end() ? nullptr : &it->second;
}

Context::Context(const Experiment &experiment, std::ostream &out,
                 std::vector<std::string> workloads, bool keep_going,
                 const Schedule *schedule)
    : experiment_(experiment),
      out_(out),
      suite_(workloads.empty()
                 ? workload::WorkloadRegistry::evaluationSuite()
                 : std::move(workloads)),
      keepGoing_(keep_going),
      schedule_(schedule),
      doc_(Json::object())
{
    doc_["experiment"] = experiment.id;
    doc_["title"] = experiment.title;
    doc_["grids"] = Json::object();
    doc_["headlines"] = Json::object();
}

const GridSpec &
Context::spec(const std::string &key)
{
    if (specs_.empty())
        specs_ = experiment_.grids(suite_);
    auto spec = std::find_if(specs_.begin(), specs_.end(),
                             [&](const GridSpec &candidate) {
                                 return candidate.key == key;
                             });
    if (spec == specs_.end())
        panic(Msg() << experiment_.id << " fetched grid '" << key
                    << "', which it does not declare");
    return *spec;
}

const sim::ResultGrid &
Context::grid(const std::string &key)
{
    if (auto it = fetched_.find(key); it != fetched_.end())
        return it->second.grid;
    const GridSpec &declared = spec(key);
    const GridRuns *runs =
        schedule_ ? schedule_->find(experiment_.id, key) : nullptr;
    if (!runs) {
        ownRuns_.push_back(
            std::make_unique<GridRuns>(std::move(runGrids({declared})[0])));
        runs = ownRuns_.back().get();
    }

    sim::ResultGrid grid("IPC");
    Json errors = Json::array();
    for (const auto &run : runs->runs) {
        const sim::RunOutcome &outcome = run.outcome;
        if (outcome.ok()) {
            grid.add(outcome.result);
            continue;
        }
        // All or nothing outside keep-going mode: the first failed
        // run's error ends the experiment, and nothing is recorded.
        if (!keepGoing_)
            std::rethrow_exception(outcome.exception);
        errors.push(outcome.errorJson());
        ++failedRuns_;
        failureSummaries_.push_back(
            experiment_.id + "/" + key + ": " + outcome.workload +
            " / " + outcome.configTag + ": " + outcome.errorKind +
            ": " + outcome.errorMessage);
        warn(Msg() << "keep-going: " << failureSummaries_.back());
    }

    Json grid_json;
    try {
        grid_json = grid.toJson(declared.baseline);
    } catch (const SimError &) {
        if (!keepGoing_)
            throw;
        // The baseline column lost runs; record the absolute view.
        grid_json = grid.toJson();
    }
    if (errors.items().size())
        grid_json["errors"] = std::move(errors);
    if (traceCache) {
        sim::TraceCache::Stats saved = savingsOf(*runs);
        grid_json["replay"] = replayJson(saved);
        printReplaySummary(out_, experiment_.id, key, saved);
    }
    doc_["grids"][key] = std::move(grid_json);
    printProfiles(grid);
    return fetched_.emplace(key, Fetched{runs, std::move(grid)})
        .first->second.grid;
}

sim::SimResult
Context::machineResult(const sim::SimConfig &machine)
{
    const std::string text = machineText(machine);
    for (const auto &[key, fetched] : fetched_) {
        const GridRuns &runs = *fetched.runs;
        for (std::size_t i = 0; i < runs.configs.size(); ++i)
            if (runs.configs[i].workloadName == machine.workloadName &&
                runs.runs[i].outcome.ok() &&
                machineText(runs.configs[i]) == text)
                return runs.runs[i].outcome.result;
    }
    return sim::simulate(machine);
}

void
Context::printProfiles(const sim::ResultGrid &grid)
{
    for (const auto &workload : grid.workloads()) {
        for (const auto &config : grid.configs()) {
            const sim::SimResult *result;
            try {
                result = &grid.result(workload, config);
            } catch (const SimError &) {
                continue;  // keep-going left a hole in the grid
            }
            if (result->profileJson.empty())
                continue;
            out_ << workload << " / " << config << ":\n"
                 << obs::profileTable(Json::parse(result->profileJson,
                                                  "profile"))
                 << "\n";
        }
    }
}

void
Context::printGrid(const std::string &key)
{
    const sim::ResultGrid &grid = this->grid(key);
    const std::string &baseline = spec(key).baseline;
    out_ << "Instructions per cycle:\n"
         << grid.ipcTable().render() << "\n";
    try {
        out_ << "Performance relative to '" << baseline << "':\n"
             << grid.relativeTable(baseline).render() << "\n";
    } catch (const SimError &error) {
        if (!keepGoing_)
            throw;
        out_ << "Performance relative to '" << baseline
             << "': unavailable (" << error.what() << ")\n\n";
    }
}

TextTable
Context::relativeTable(const std::string &key)
{
    return grid(key).relativeTable(spec(key).baseline);
}

void
Context::headline(const std::string &key, double value)
{
    doc_["headlines"][key] = value;
}

void
Context::noteBodyError(const SimError &error)
{
    Json record = Json::object();
    record["kind"] = error.kind();
    record["message"] = std::string(error.what());
    doc_["error"] = std::move(record);
    ++failedRuns_;
    failureSummaries_.push_back(experiment_.id + ": experiment body: " +
                                error.kind() + ": " + error.what());
    warn(Msg() << "keep-going: " << failureSummaries_.back());
}

} // namespace cpe::exp
