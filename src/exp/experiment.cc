#include "exp/experiment.hh"

#include <ostream>

#include "obs/profiler.hh"
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

/**
 * The functional work one grid saved via the trace cache, as the
 * delta of the cache counters across the grid's sweep.
 */
struct ReplaySavings
{
    std::uint64_t captures = 0;
    std::uint64_t replays = 0;   ///< in-memory + disk-loaded
    std::uint64_t diskLoads = 0;
    std::uint64_t instsSkipped = 0;
    std::uint64_t spillFailures = 0;
    bool degraded = false;  ///< spill circuit breaker open

    Json toJson() const
    {
        Json out = Json::object();
        out["captures"] = captures;
        out["replays"] = replays;
        out["disk_loads"] = diskLoads;
        out["insts_skipped"] = instsSkipped;
        out["spill_failures"] = spillFailures;
        out["degraded"] = Json(degraded);
        return out;
    }
};

void
printReplaySummary(std::ostream &out, const std::string &experiment_id,
                   const std::string &key, const ReplaySavings &saved)
{
    out << "[replay] " << experiment_id << "/" << key << ": "
        << saved.captures << " capture(s), " << saved.replays
        << " replay(s)";
    if (saved.diskLoads)
        out << " (" << saved.diskLoads << " from disk)";
    out << ", " << saved.instsSkipped << " functional insts skipped";
    if (saved.degraded)
        out << " [degraded: spill disabled after " << saved.spillFailures
            << " failure(s)]";
    out << "\n\n";
}

ReplaySavings
savingsSince(const sim::TraceCache::Stats &before)
{
    sim::TraceCache::Stats now = traceCache->stats();
    ReplaySavings delta;
    delta.captures = now.captures - before.captures;
    delta.diskLoads = now.diskLoads - before.diskLoads;
    delta.replays = (now.replays - before.replays) + delta.diskLoads;
    delta.instsSkipped = now.instsSkipped - before.instsSkipped;
    delta.spillFailures = now.spillFailures - before.spillFailures;
    delta.degraded = traceCache->degraded();
    return delta;
}

} // namespace

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

Context::Context(const Experiment &experiment, std::ostream &out,
                 std::vector<std::string> workloads, bool keep_going)
    : experiment_(experiment),
      out_(out),
      suite_(workloads.empty()
                 ? workload::WorkloadRegistry::evaluationSuite()
                 : std::move(workloads)),
      keepGoing_(keep_going),
      doc_(Json::object())
{
    doc_["experiment"] = experiment.id;
    doc_["title"] = experiment.title;
    doc_["grids"] = Json::object();
    doc_["headlines"] = Json::object();
}

sim::ResultGrid
Context::runGrid(const std::string &key,
                 const std::vector<Variant> &variants,
                 const std::vector<std::string> &workloads,
                 const std::string &baseline)
{
    VerboseScope quiet(false);
    auto configs =
        suiteConfigs(variants, workloads.empty() ? suite_ : workloads);
    // Replay accounting: the delta of the shared cache's counters
    // across this grid is exactly the functional work this grid saved.
    sim::TraceCache::Stats cache_before;
    if (traceCache)
        cache_before = traceCache->stats();
    if (!keepGoing_) {
        sim::ResultGrid grid = sim::SweepRunner().runGrid(configs);
        Json grid_json = grid.toJson(baseline);
        if (traceCache) {
            ReplaySavings saved = savingsSince(cache_before);
            grid_json["replay"] = saved.toJson();
            printReplaySummary(out_, experiment_.id, key, saved);
        }
        doc_["grids"][key] = std::move(grid_json);
        printProfiles(grid);
        return grid;
    }

    // Fault-isolating path: every run completes; failures become
    // structured "errors" records beside the (partial) grid.
    auto outcomes = sim::SweepRunner().runOutcomes(configs);
    sim::ResultGrid grid("IPC");
    Json errors = Json::array();
    for (const auto &outcome : outcomes) {
        if (outcome.ok()) {
            grid.add(outcome.result);
            continue;
        }
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
        grid_json = grid.toJson(baseline);
    } catch (const SimError &) {
        // The baseline column lost runs; record the absolute view.
        grid_json = grid.toJson();
    }
    if (errors.items().size())
        grid_json["errors"] = std::move(errors);
    if (traceCache) {
        ReplaySavings saved = savingsSince(cache_before);
        grid_json["replay"] = saved.toJson();
        printReplaySummary(out_, experiment_.id, key, saved);
    }
    doc_["grids"][key] = std::move(grid_json);
    printProfiles(grid);
    return grid;
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
Context::printGrid(const sim::ResultGrid &grid,
                   const std::string &baseline)
{
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
