/**
 * @file
 * cpe_perfbench: the host-cost benchmark of cpesim.
 *
 * Measures how long the simulator takes to run (host time) on four
 * batch workloads, driving the simulator only through its public
 * functions.  Simulated statistics are deterministic, so they serve as
 * output checks and exact work counts, never as timings.
 *
 *   suite     every registered experiment through exp::evalMain on the
 *             reduced suite, replay on, fresh trace cache, <= 4 workers
 *   detailed  the F5 headline grid across <= 4 workers over traces
 *             captured during set-up: the detailed out-of-order core alone
 *   sampled   F13's periodic SMARTS configs at scale 8, one worker, a
 *             fresh trace cache per pass (users pay for the capture)
 *   observed  a subset of the detailed grid with the tracer, interval
 *             sampler and profiler on
 *
 * Untraced (--trace 0): set-up is repeated and its median reported,
 * then passes run until --seconds is used up; the end-to-end metrics
 * are medians over passes.  Traced (--trace 1): one untraced and one
 * traced pass of the named workload (their wall-time difference is the
 * tracing overhead) plus one traced pass of every other workload and
 * the layer probes, then the per-layer metrics.  Spans are recorded by
 * this file around each call into a layer's public function, kept in
 * memory, and written to <work-dir>/spans-<workload>.jsonl at exit.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * where attempted/failed count simulation runs; a run fails when it
 * throws or when its output check fails.  See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/store_buffer.hh"
#include "exp/driver.hh"
#include "exp/registry.hh"
#include "func/captured_trace.hh"
#include "func/executor.hh"
#include "mem/cache.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

namespace {

using namespace cpe;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
relErrPct(double value, double reference)
{
    return 100.0 * std::abs(value - reference) / reference;
}

// ---------------------------------------------------------------------
// Spans

/**
 * In-memory span recorder for the traced run.  A span's layer is its
 * name up to the first '.'; nesting comes from the open-span stack, so
 * spans must be opened and closed on the benchmark's main thread.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;  ///< seconds since the log was created
        double end = 0.0;
        int parent = -1;     ///< index into spans(), -1 for a root
        int run = 0;
    };

    /** Records one span for its lifetime; does nothing without a log. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string name) : log_(log)
        {
            if (log_)
                id_ = log_->open(std::move(name));
        }
        ~Scope()
        {
            if (log_)
                log_->close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        int id_ = -1;
    };

    /** Start a new run id; later spans carry it. */
    int beginRun() { return ++run_; }

    /** Summed duration of the spans named @p name in run @p run. */
    double total(int run, const std::string &name) const
    {
        double sum = 0.0;
        for (const auto &span : spans_)
            if (span.run == run && span.name == name)
                sum += span.end - span.start;
        return sum;
    }

    /** Self time per layer: each span's duration minus the time its
     *  child spans cover, summed by layer. */
    std::map<std::string, double> selfSecondsByLayer() const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const auto &span : spans_)
            if (span.parent >= 0)
                childTime[span.parent] += span.end - span.start;
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &span = spans_[i];
            self[span.name.substr(0, span.name.find('.'))] +=
                span.end - span.start - childTime[i];
        }
        return self;
    }

    void write(const std::filesystem::path &path) const
    {
        std::ofstream out(path);
        for (const auto &span : spans_) {
            Json line = Json::object();
            line["name"] = span.name;
            line["start_s"] = span.start;
            line["end_s"] = span.end;
            line["parent"] = span.parent;
            line["run"] = span.run;
            out << line.dump() << "\n";
        }
        if (!out.flush())
            throw IoError("cannot write spans to " + path.string());
    }

  private:
    int open(std::string name)
    {
        Span span;
        span.name = std::move(name);
        span.start = now();
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.run = run_;
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void close(int id)
    {
        spans_[id].end = now();
        stack_.pop_back();
    }

    double now() const { return secondsBetween(origin_, Clock::now()); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int run_ = 0;
};

using Scope = SpanLog::Scope;

// ---------------------------------------------------------------------
// Shared plumbing

/** Runs attempted and failed; every failure is explained on stderr. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one run; @p problem empty means it passed its checks. */
    void run(const std::string &problem)
    {
        ++attempted;
        if (!problem.empty())
            fail(problem);
    }

    /** A later check failed a run already counted. */
    void fail(const std::string &problem)
    {
        ++failed;
        std::cerr << "perfbench: FAILED: " << problem << "\n";
    }
};

/** The metrics object of the result line. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            throw SimError("metric " + name + " is not finite");
        Json entry = Json::object();
        entry["value"] = value;
        entry["unit"] = unit;
        json_[name] = std::move(entry);
    }
    const Json &json() const { return json_; }

  private:
    Json json_ = Json::object();
};

/**
 * Put every process-wide hook back to its default.  exp::evalMain
 * leaves its (by then destroyed) trace cache installed and its job
 * count set, so a pass that followed it without this reset would
 * inherit both.
 */
void
resetHooks()
{
    exp::setFaultInjection({});
    exp::setTraceCache(nullptr);
    exp::setObservability(nullptr, 0, 0);
    exp::setSampling(sim::SampleParams{});
    sim::SweepRunner::setDefaultJobs(0);
    sim::SweepRunner::setDefaultRetryPolicy(util::RetryPolicy{});
}

/** Resets the hooks on entry and on exit of a pass. */
struct HookScope
{
    HookScope() { resetHooks(); }
    ~HookScope() { resetHooks(); }
    HookScope(const HookScope &) = delete;
    HookScope &operator=(const HookScope &) = delete;
};

/** Discards what is written to it (cpe_eval's tables). */
class NullBuffer : public std::streambuf
{
  protected:
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

const exp::Experiment &
experiment(const std::string &id)
{
    return exp::ExperimentRegistry::instance().get(id);
}

/** @p id's primary variants, keeping only the labels in @p keep
 *  (all when empty). */
std::vector<exp::Variant>
variantsOf(const std::string &id, const std::set<std::string> &keep = {})
{
    auto variants = experiment(id).variants();
    if (!keep.empty())
        std::erase_if(variants, [&](const exp::Variant &variant) {
            return !keep.count(variant.label);
        });
    return variants;
}

/** Expand a grid and stamp the workload seed on every config. */
std::vector<sim::SimConfig>
gridConfigs(const std::vector<exp::Variant> &variants,
            const std::vector<std::string> &workloads, std::uint64_t seed)
{
    auto configs = exp::suiteConfigs(variants, workloads);
    for (auto &config : configs)
        config.workload.seed = seed;
    return configs;
}

/** The problem with one finished run, or "" when it is fine. */
std::string
runProblem(const sim::RunOutcome &outcome)
{
    if (!outcome.ok())
        return outcome.workload + " / " + outcome.configTag + ": " +
               outcome.errorKind + ": " + outcome.errorMessage;
    const auto &result = outcome.result;
    if (result.insts == 0 || result.cycles == 0 || !(result.ipc > 0.0) ||
        !std::isfinite(result.ipc))
        return outcome.workload + " / " + outcome.configTag +
               ": empty or non-finite result";
    return "";
}

/** Sum of a dotted path's values over every run's statsJson. */
double
statSum(const std::vector<sim::SimResult> &results, const std::string &path)
{
    double sum = 0.0;
    for (const auto &result : results) {
        Json stats = Json::parse(result.statsJson, "statsJson");
        const Json *node = &stats;
        std::stringstream parts(path);
        std::string part;
        while (node && std::getline(parts, part, '.'))
            node = node->find(part);
        if (!node)
            throw ConfigError("statsJson has no " + path);
        sum += node->asNumber();
    }
    return sum;
}

/** Captures of the traces behind @p configs, one per distinct key. */
std::map<std::string, std::shared_ptr<const func::CapturedTrace>>
captureAll(sim::TraceCache &cache, const std::vector<sim::SimConfig> &configs,
           SpanLog *log)
{
    std::map<std::string, std::shared_ptr<const func::CapturedTrace>> traces;
    for (const auto &config : configs) {
        if (traces.count(config.workloadName))
            continue;
        Scope span(log, "func.capture");
        traces[config.workloadName] = cache.acquire(config);
    }
    return traces;
}

void
buildPrograms(const std::vector<std::string> &workloads,
              const workload::WorkloadOptions &options, SpanLog *log)
{
    for (const auto &name : workloads) {
        Scope span(log, "workload.build");
        auto program =
            workload::WorkloadRegistry::instance().build(name, options);
        if (program.text().empty())
            throw WorkloadError("workload " + name + " built no code");
    }
}

/** What one timed pass did. */
struct Pass
{
    double wallS = 0.0;
    /** Committed-path instructions the pass covered. */
    std::uint64_t insts = 0;
};

/** What the post-pass output checks found. */
struct Verdict
{
    /** 100 minus the largest IPC error against the reference, %. */
    double accuracyPct = 100.0;
    /** Instructions a pass covered that only the checks could count. */
    std::uint64_t extraInstsPerPass = 0;
};

/** One benchmark workload. */
class Workload
{
  public:
    explicit Workload(std::uint64_t seed) : seed_(seed) {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Everything before the timed phase; may be repeated. */
    virtual void setup(SpanLog *log) = 0;
    /** One timed pass; counts its runs in @p tally. */
    virtual Pass pass(SpanLog *log, Tally &tally) = 0;
    /** Output checks needing work outside the timed phase. */
    virtual Verdict verify(Tally &tally) = 0;
    /** This workload's per-layer metrics from run @p run's spans. */
    virtual void layerMetrics(const SpanLog &log, int run,
                              Metrics &metrics) = 0;

  protected:
    std::uint64_t seed_;
};

// ---------------------------------------------------------------------
// suite: the paper's whole evaluation through cpe_eval's entry point

class SuiteWorkload : public Workload
{
  public:
    SuiteWorkload(std::uint64_t seed, std::filesystem::path work_dir,
                  std::filesystem::path baseline_dir, unsigned jobs)
        : Workload(seed), outDir_(std::move(work_dir) / "eval-docs"),
          baselineDir_(std::move(baseline_dir)), jobs_(jobs)
    {
    }

    void setup(SpanLog *log) override
    {
        baselines_.clear();
        for (const auto &id : exp::ExperimentRegistry::instance().ids())
            baselines_[id] = exp::loadBaseline(baselineDir_.string(), id);
        // cpe_eval has no seed knob: the experiments always run their
        // inputs at the default workload seed.
        buildPrograms(exp::reducedSuite(), {}, log);
    }

    /**
     * Untraced: one `cpe_eval --run all` through exp::evalMain.
     * Traced: the same experiments one Experiment::run at a time
     * through the registry, with the shared cache and job count
     * evalMain installs, so each experiment gets its own span.
     */
    Pass pass(SpanLog *log, Tally &tally) override
    {
        docs_.clear();
        auto start = Clock::now();
        if (log)
            runThroughRegistry(log);
        else
            runThroughEvalMain();
        Pass pass;
        pass.wallS = secondsBetween(start, Clock::now());
        pass.insts = checkDocs(tally);
        return pass;
    }

    Verdict verify(Tally &) override
    {
        // F13 times its own runs outside the grids, so its records
        // carry no instruction counts: each of its workloads is run
        // full-detail and sampled over one committed stream.
        if (!f13Insts_) {
            HookScope hooks;
            sim::TraceCache cache;
            auto configs = gridConfigs(variantsOf("F13", {"full"}),
                                       experiment("F13").workloads, 42);
            for (const auto &[name, trace] :
                 captureAll(cache, configs, nullptr))
                f13Insts_ += 2 * trace->size();
        }
        Verdict verdict;
        verdict.accuracyPct = 100.0 - maxBaselineErrPct_;
        verdict.extraInstsPerPass = f13Insts_;
        return verdict;
    }

    void layerMetrics(const SpanLog &log, int run, Metrics &metrics) override
    {
        for (const auto &id : exp::ExperimentRegistry::instance().ids()) {
            double wall = log.total(run, "exp." + id);
            metrics.add("exp." + id + ".wall_s", wall, "s");
            metrics.add("exp." + id + ".cpu_per_wall",
                        cpuSeconds_[id] / wall, "ratio");
        }
        metrics.add("sim.requested_runs", requestedRuns_, "count");
        metrics.add("sim.distinct_runs", distinctRuns_, "count");
        metrics.add("sim.simulate_calls",
                    cacheStats_.captures + cacheStats_.replays +
                        cacheStats_.diskLoads,
                    "count");
        metrics.add("sim.trace_cache.captures", cacheStats_.captures,
                    "count");
        metrics.add("sim.trace_cache.replays", cacheStats_.replays,
                    "count");
    }

  private:
    void runThroughEvalMain()
    {
        HookScope hooks;
        std::filesystem::remove_all(outDir_);
        std::string workloads;
        for (const auto &name : exp::reducedSuite())
            workloads += (workloads.empty() ? "" : ",") + name;
        std::vector<std::string> args = {
            "cpe_eval", "--run", "all", "--workloads", workloads,
            "--jobs", std::to_string(jobs_), "--keep-going",
            "--out", outDir_.string()};
        std::vector<char *> argv;
        for (auto &arg : args)
            argv.push_back(arg.data());
        NullBuffer null_buffer;
        std::streambuf *saved = std::cout.rdbuf(&null_buffer);
        int rc = exp::evalMain(static_cast<int>(argv.size()), argv.data());
        std::cout.rdbuf(saved);
        if (rc != 0)
            std::cerr << "perfbench: cpe_eval exited " << rc << "\n";
        for (const auto &id : exp::ExperimentRegistry::instance().ids()) {
            std::ifstream in(outDir_ / (id + ".json"));
            std::stringstream text;
            text << in.rdbuf();
            Json doc;
            std::string error;
            if (in && Json::tryParse(text.str(), doc, error))
                docs_[id] = std::move(doc);
        }
        std::filesystem::remove_all(outDir_);
    }

    void runThroughRegistry(SpanLog *log)
    {
        HookScope hooks;
        sim::TraceCache cache;
        exp::setTraceCache(&cache);
        sim::SweepRunner::setDefaultJobs(jobs_);
        NullBuffer null_buffer;
        std::ostream null_stream(&null_buffer);
        for (const auto *entry :
             exp::ExperimentRegistry::instance().all()) {
            exp::Context context(*entry, null_stream, exp::reducedSuite(),
                                 /*keep_going=*/true);
            double cpu_start = processCpuSeconds();
            {
                Scope span(log, "exp." + entry->id);
                try {
                    entry->run(context);
                } catch (const SimError &error) {
                    context.noteBodyError(error);
                }
            }
            cpuSeconds_[entry->id] = processCpuSeconds() - cpu_start;
            docs_[entry->id] = context.doc();
        }
        cacheStats_ = cache.stats();
    }

    /** Count every run in the documents, check each against its
     *  invariants and the committed baselines; @return the committed
     *  instructions the grids' runs covered. */
    std::uint64_t checkDocs(Tally &tally)
    {
        std::uint64_t insts = 0;
        std::set<std::string> fingerprints;
        requestedRuns_ = 0;
        maxBaselineErrPct_ = 0.0;
        for (const auto &id : exp::ExperimentRegistry::instance().ids()) {
            auto doc = docs_.find(id);
            if (doc == docs_.end()) {
                tally.run(id + ": no results document");
                continue;
            }
            if (doc->second.find("error"))
                tally.run(id + ": experiment body failed");
            for (const auto &[key, grid] :
                 doc->second.at("grids").members()) {
                if (const Json *errors = grid.find("errors"))
                    for (const auto &error : errors->items())
                        tally.run(id + "/" + key + ": " + error.dump());
                for (const auto &run : grid.at("runs").items()) {
                    ++requestedRuns_;
                    double ipc = run.at("ipc").asNumber();
                    insts += static_cast<std::uint64_t>(
                        run.at("insts").asNumber());
                    Json fingerprint = run;
                    fingerprint["config"] = "";
                    fingerprints.insert(fingerprint.dump());
                    tally.run(ipc > 0.0 && std::isfinite(ipc)
                                  ? ""
                                  : id + "/" + key + ": bad IPC");
                }
            }
            if (const Json *rows = doc->second.find("sampled_validation")) {
                // F13 runs each workload full-detail and sampled itself,
                // outside any grid.
                for (const auto &row : rows->items()) {
                    requestedRuns_ += 2;
                    fingerprints.insert("F13 " + row.dump());
                    fingerprints.insert("F13 sampled " + row.dump());
                    for (const char *field : {"full_ipc", "sampled_ipc"}) {
                        double ipc = row.at(field).asNumber();
                        tally.run(ipc > 0.0 && std::isfinite(ipc)
                                      ? ""
                                      : id + ": bad " + field);
                    }
                }
            }
            checkBaseline(id, doc->second, tally);
        }
        distinctRuns_ = fingerprints.size();
        return insts;
    }

    /**
     * Compare the baseline's IPCs exactly against the experiment's
     * grid that reproduces most of them (an experiment such as F7 runs
     * its primary variants in one of several grids); each mismatch
     * fails that run.  T1 and T2 record no simulated IPC, so there is
     * nothing to compare.
     */
    void checkBaseline(const std::string &id, const Json &doc, Tally &tally)
    {
        const Json &expected = baselines_.at(id).at("ipc");
        std::vector<Json> tables;
        for (const auto &[key, grid] : doc.at("grids").members())
            tables.push_back(grid.at("ipc"));
        if (const Json *rows = doc.find("sampled_validation")) {
            // F13: only the full-detail column is baselined; its
            // wall-clock fields and sampled estimates are not compared.
            Json table = Json::object();
            for (const auto &row : rows->items())
                table[row.at("workload").asString()]["full"] =
                    row.at("full_ipc");
            tables.push_back(std::move(table));
        }
        if (tables.empty())
            return;

        auto cell = [](const Json &table, const std::string &workload,
                       const std::string &config) -> const Json * {
            const Json *row = table.find(workload);
            return row ? row->find(config) : nullptr;
        };
        const Json *best = nullptr;
        int best_matches = -1;
        for (const auto &table : tables) {
            int matches = 0;
            for (const auto &[workload, row] : expected.members())
                for (const auto &[config, ipc] : row.members())
                    if (const Json *actual = cell(table, workload, config))
                        matches += actual->asNumber() == ipc.asNumber();
            if (matches > best_matches) {
                best = &table;
                best_matches = matches;
            }
        }
        for (const auto &[workload, row] : expected.members()) {
            for (const auto &[config, ipc] : row.members()) {
                const Json *actual = cell(*best, workload, config);
                std::string name = id + " " + workload + " / " + config;
                if (!actual) {
                    tally.fail(name + ": missing from the results");
                    continue;
                }
                maxBaselineErrPct_ =
                    std::max(maxBaselineErrPct_,
                             relErrPct(actual->asNumber(), ipc.asNumber()));
                if (actual->asNumber() != ipc.asNumber())
                    tally.fail(name + ": IPC " + actual->dump() +
                              " != baseline " + ipc.dump());
            }
        }
    }

    std::filesystem::path outDir_;
    std::filesystem::path baselineDir_;
    unsigned jobs_;
    std::map<std::string, Json> baselines_;
    std::map<std::string, Json> docs_;
    std::map<std::string, double> cpuSeconds_;
    sim::TraceCache::Stats cacheStats_;
    std::uint64_t requestedRuns_ = 0;
    std::uint64_t distinctRuns_ = 0;
    std::uint64_t f13Insts_ = 0;
    double maxBaselineErrPct_ = 0.0;
};

// ---------------------------------------------------------------------
// detailed and observed: a replayed F5 grid across the sweep workers.
// One worker would isolate the core loop further, but a single core's
// speed on a shared host drifts for seconds at a time; four cores
// average that out (see README.md).

class GridWorkload : public Workload
{
  public:
    GridWorkload(std::uint64_t seed, std::vector<std::string> workloads,
                 unsigned jobs)
        : Workload(seed), workloads_(std::move(workloads)), jobs_(jobs)
    {
    }

    void setup(SpanLog *log) override
    {
        HookScope hooks;
        // Drop the previous set-up's captures first, so repeating the
        // set-up never holds two copies.
        traces_.clear();
        cache_.reset();
        workload::WorkloadOptions options;
        options.seed = seed_;
        buildPrograms(workloads_, options, log);
        cache_ = std::make_unique<sim::TraceCache>();
        installHooks();
        configs_ = gridConfigs(variantsOf("F5"), workloads_, seed_);
        traces_ = captureAll(*cache_, configs_, log);
    }

  protected:
    /** Hooks in force while the grid's configs are built. */
    virtual void installHooks() { exp::setTraceCache(cache_.get()); }

    /**
     * Run @p configs once across the sweep runner's workers, in one
     * span; checks each run's committed count against its capture.
     * @return the pass, with each run's result in @p results and the
     *         runs' summed host time in @p run_seconds.
     */
    Pass runGrid(SpanLog *log, const std::string &span_name,
                 const std::vector<sim::SimConfig> &configs, Tally &tally,
                 std::vector<sim::SimResult> &results, double &run_seconds)
    {
        std::vector<sim::RunOutcome> outcomes;
        auto start = Clock::now();
        {
            Scope span(log, span_name);
            outcomes = sim::SweepRunner(jobs_).runOutcomes(configs);
        }
        Pass pass;
        pass.wallS = secondsBetween(start, Clock::now());
        results.clear();
        run_seconds = 0.0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            auto &outcome = outcomes[i];
            std::string problem = runProblem(outcome);
            std::size_t expected =
                traces_.at(configs[i].workloadName)->size();
            if (problem.empty() && outcome.result.insts != expected)
                problem = outcome.workload + " / " + outcome.configTag +
                          ": committed " +
                          std::to_string(outcome.result.insts) +
                          " of a " + std::to_string(expected) +
                          "-instruction capture";
            tally.run(problem);
            run_seconds += outcome.wallMs / 1e3;
            pass.insts += outcome.result.insts;
            results.push_back(std::move(outcome.result));
        }
        return pass;
    }

    std::vector<std::string> workloads_;
    unsigned jobs_;
    std::unique_ptr<sim::TraceCache> cache_;
    std::vector<sim::SimConfig> configs_;
    std::map<std::string, std::shared_ptr<const func::CapturedTrace>>
        traces_;
};

class DetailedWorkload : public GridWorkload
{
  public:
    DetailedWorkload(std::uint64_t seed, std::filesystem::path baseline_dir,
                     unsigned jobs)
        : GridWorkload(seed, workload::WorkloadRegistry::evaluationSuite(),
                       jobs),
          baselineDir_(std::move(baseline_dir))
    {
    }

    /** Cycles and IPC must repeat exactly across passes. */
    Pass pass(SpanLog *log, Tally &tally) override
    {
        Pass pass = runGrid(log, "cpu.sweep", configs_, tally, results_,
                            runSeconds_);
        if (first_.empty()) {
            first_ = results_;
            return pass;
        }
        for (std::size_t i = 0; i < results_.size(); ++i) {
            if (results_[i].cycles != first_[i].cycles ||
                results_[i].ipc != first_[i].ipc) {
                tally.fail(results_[i].workload + " / " +
                           results_[i].configTag +
                           ": cycles or IPC changed between passes");
                repeatErrPct_ = std::max(
                    repeatErrPct_,
                    relErrPct(results_[i].ipc, first_[i].ipc));
            }
        }
        return pass;
    }

    /** At the baseline seed, the reduced-suite cells must equal F5's
     *  committed baseline exactly. */
    Verdict verify(Tally &tally) override
    {
        Verdict verdict;
        double worst = repeatErrPct_;
        if (seed_ == 42) {
            Json baseline = exp::loadBaseline(baselineDir_.string(), "F5");
            for (const auto &result : first_) {
                const Json *row = baseline.at("ipc").find(result.workload);
                const Json *expected =
                    row ? row->find(result.configTag) : nullptr;
                if (!expected)
                    continue;
                worst = std::max(worst, relErrPct(result.ipc,
                                                  expected->asNumber()));
                if (result.ipc != expected->asNumber())
                    tally.fail("F5 " + result.workload + " / " +
                              result.configTag + ": IPC differs from the "
                              "committed baseline");
            }
        }
        verdict.accuracyPct = 100.0 - worst;
        return verdict;
    }

    void layerMetrics(const SpanLog &log, int run, Metrics &metrics) override
    {
        double insts = 0.0;
        double cycles = 0.0;
        for (const auto &result : results_) {
            insts += static_cast<double>(result.insts);
            cycles += static_cast<double>(result.cycles);
        }
        double captured = 0.0;
        double capture_bytes = 0.0;
        for (const auto &[name, trace] : traces_) {
            captured += static_cast<double>(trace->size());
            capture_bytes += static_cast<double>(trace->memoryBytes());
        }
        metrics.add("workload.build_ms",
                    1e3 * log.total(run, "workload.build"), "ms");
        metrics.add("func.capture_mips",
                    captured / log.total(run, "func.capture") / 1e6,
                    "Minst/s");
        metrics.add("func.capture_mb", capture_bytes / 1e6, "MB");
        metrics.add("cpu.detailed_mips", insts / runSeconds_ / 1e6,
                    "Minst/s");
        metrics.add("cpu.host_ns_per_cycle", 1e9 * runSeconds_ / cycles,
                    "ns");
        metrics.add("cpu.sim_cycles", cycles, "count");
        metrics.add("cpu.committed_insts", insts, "count");
        metrics.add("core.port_grants",
                    statSum(results_, "core.dcache_unit.dports.grants"),
                    "count");
        metrics.add("core.lb_lookups",
                    statSum(results_,
                            "core.dcache_unit.line_buffers.lookups"),
                    "count");
        metrics.add("core.sb_inserts",
                    statSum(results_,
                            "core.dcache_unit.store_buffer.inserts"),
                    "count");
        metrics.add("mem.l1d_accesses",
                    statSum(results_, "core.dcache_unit.l1d.hits") +
                        statSum(results_, "core.dcache_unit.l1d.misses"),
                    "count");
    }

    /** The captured traces, for the cache and store-buffer probes. */
    const auto &traces() const { return traces_; }

  private:
    std::filesystem::path baselineDir_;
    std::vector<sim::SimResult> first_;
    std::vector<sim::SimResult> results_;
    /** Summed host time of the last pass's runs. */
    double runSeconds_ = 0.0;
    double repeatErrPct_ = 0.0;
};

/** The grid subset the observed workload runs: at full size it would
 *  write about 2 GB of trace per pass. */
const std::vector<std::string> &
observedWorkloads()
{
    static const std::vector<std::string> workloads = {"matmul", "copy"};
    return workloads;
}

class ObservedWorkload : public GridWorkload
{
  public:
    ObservedWorkload(std::uint64_t seed, unsigned jobs)
        : GridWorkload(seed, observedWorkloads(), jobs)
    {
    }

    /** Each pass writes to a fresh sink: the sink numbers the runs,
     *  and a run id's digits are part of every trace line. */
    Pass pass(SpanLog *log, Tally &tally) override
    {
        obs::CountingTraceSink sink;
        for (auto &config : configs_)
            config.obs.traceSink = &sink;
        std::vector<sim::SimResult> results;
        Pass pass = runGrid(log, "obs.sweep", configs_, tally, results,
                            runSeconds_);
        std::uint64_t bytes = sink.bytes();
        if (passBytes_ && bytes != passBytes_) {
            tally.fail("trace bytes changed between passes: " +
                       std::to_string(bytes) + " != " +
                       std::to_string(passBytes_));
        }
        passBytes_ = bytes;
        for (const auto &result : results)
            if (result.timeseriesJson.empty() || result.profileJson.empty())
                tally.fail(result.workload + " / " + result.configTag +
                           ": observed run lacks its timeseries or profile");
        observed_.push_back(std::move(results));
        return pass;
    }

    /** Every observed run must match the untraced run exactly. */
    Verdict verify(Tally &tally) override
    {
        std::vector<sim::SimConfig> plain;
        {
            HookScope hooks;
            exp::setTraceCache(cache_.get());
            plain = gridConfigs(variantsOf("F5"), workloads_, seed_);
        }
        std::vector<sim::SimResult> reference;
        runGrid(nullptr, "", plain, tally, reference, untracedRunSeconds_);

        Verdict verdict;
        double worst = 0.0;
        for (const auto &results : observed_) {
            for (std::size_t i = 0; i < results.size(); ++i) {
                worst = std::max(worst, relErrPct(results[i].ipc,
                                                  reference[i].ipc));
                if (results[i].ipc != reference[i].ipc ||
                    results[i].cycles != reference[i].cycles) {
                    tally.fail("observed " + results[i].workload + " / " +
                               results[i].configTag +
                               " differs from the untraced run");
                }
            }
        }
        observed_.clear();
        verdict.accuracyPct = 100.0 - worst;
        return verdict;
    }

    void layerMetrics(const SpanLog &, int, Metrics &metrics) override
    {
        metrics.add("obs.run_ms", 1e3 * runSeconds_, "ms");
        metrics.add("obs.trace_bytes", static_cast<double>(passBytes_),
                    "bytes");
        metrics.add("obs.overhead_x", runSeconds_ / untracedRunSeconds_,
                    "ratio");
    }

  protected:
    void installHooks() override
    {
        GridWorkload::installHooks();
        exp::setObservability(nullptr, 1000, 10);
    }

  private:
    std::uint64_t passBytes_ = 0;
    std::vector<std::vector<sim::SimResult>> observed_;
    /** Summed host time of the last observed and untraced runs. */
    double runSeconds_ = 0.0;
    double untracedRunSeconds_ = 0.0;
};

// ---------------------------------------------------------------------
// sampled: F13's SMARTS configs, paying for the capture every pass

class SampledWorkload : public Workload
{
  public:
    SampledWorkload(std::uint64_t seed, std::filesystem::path baseline_dir)
        : Workload(seed), baselineDir_(std::move(baseline_dir))
    {
    }

    void setup(SpanLog *log) override
    {
        HookScope hooks;
        configs_ = gridConfigs(variantsOf("F13", {"sampled"}),
                               experiment("F13").workloads, seed_);
        buildPrograms(experiment("F13").workloads, configs_.front().workload,
                      log);
    }

    Pass pass(SpanLog *log, Tally &tally) override
    {
        sim::TraceCache cache;
        sim::SweepRunner runner(1);
        std::vector<sim::SimResult> results;
        Pass pass;
        auto start = Clock::now();
        for (auto config : configs_) {
            std::shared_ptr<const func::CapturedTrace> trace;
            {
                Scope span(log, "func.capture");
                trace = cache.acquire(config);
            }
            config.traceCache = &cache;
            sim::RunOutcome outcome;
            {
                Scope span(log, "sim.simulate_sampled");
                outcome = runner.runOne(config);
            }
            std::string problem = runProblem(outcome);
            const auto &result = outcome.result;
            if (problem.empty() &&
                (!result.sampled || result.measuredIntervals == 0 ||
                 result.ffInsts + result.insts > trace->size()))
                problem = outcome.workload +
                          ": sampled accounting does not add up";
            tally.run(problem);
            pass.insts += trace->size();
            results.push_back(result);
        }
        pass.wallS = secondsBetween(start, Clock::now());
        if (first_.empty())
            first_ = results;
        for (std::size_t i = 0; i < results.size(); ++i)
            if (results[i].ipc != first_[i].ipc) {
                tally.fail("sampled " + results[i].workload +
                           " IPC changed between passes");
            }
        results_ = std::move(results);
        return pass;
    }

    /**
     * The sampled IPCs against full-detail runs of the same inputs.
     * At the baseline seed those must equal F13's committed full
     * column exactly.  F13 itself reports up to 9.2% error at this
     * scale, so an estimate more than 20% off means a broken sampler.
     */
    Verdict verify(Tally &tally) override
    {
        std::vector<sim::SimConfig> full;
        sim::TraceCache cache;
        {
            HookScope hooks;
            exp::setTraceCache(&cache);
            full = gridConfigs(variantsOf("F13", {"full"}),
                               experiment("F13").workloads, seed_);
        }
        Json baseline = exp::loadBaseline(baselineDir_.string(), "F13");
        sim::SweepRunner runner(1);
        double worst = 0.0;
        for (std::size_t i = 0; i < full.size(); ++i) {
            auto outcome = runner.runOne(full[i]);
            std::string problem = runProblem(outcome);
            if (problem.empty() && seed_ == 42 &&
                outcome.result.ipc != baseline.at("ipc")
                                          .at(outcome.workload)
                                          .at("full")
                                          .asNumber())
                problem = "F13 " + outcome.workload +
                          ": full-detail IPC differs from the baseline";
            double err = relErrPct(first_.at(i).ipc, outcome.result.ipc);
            if (problem.empty() && !(err <= 20.0))
                problem = "F13 " + outcome.workload + ": sampled IPC " +
                          std::to_string(err) + "% off full detail";
            tally.run(problem);
            worst = std::max(worst, err);
        }
        Verdict verdict;
        verdict.accuracyPct = 100.0 - worst;
        return verdict;
    }

    void layerMetrics(const SpanLog &log, int run, Metrics &metrics) override
    {
        double ff = 0.0;
        double measured = 0.0;
        for (const auto &result : results_) {
            ff += static_cast<double>(result.ffInsts);
            measured += static_cast<double>(result.insts);
        }
        metrics.add("sim.sampled_run_ms",
                    1e3 * log.total(run, "sim.simulate_sampled"), "ms");
        metrics.add("sim.ff_insts", ff, "count");
        metrics.add("sim.measured_insts", measured, "count");
    }

  private:
    std::filesystem::path baselineDir_;
    std::vector<sim::SimConfig> configs_;
    std::vector<sim::SimResult> first_;
    std::vector<sim::SimResult> results_;
};

// ---------------------------------------------------------------------
// Layer probes the four workloads do not isolate

/** Executor::run on fresh programs of the evaluation suite. */
void
probeExecutor(std::uint64_t seed, SpanLog &log, int run, Metrics &metrics)
{
    workload::WorkloadOptions options;
    options.seed = seed;
    double insts = 0.0;
    for (const auto &name : workload::WorkloadRegistry::evaluationSuite()) {
        auto program =
            workload::WorkloadRegistry::instance().build(name, options);
        Scope span(&log, "func.execute");
        func::Executor executor(std::move(program));
        insts += static_cast<double>(executor.run());
    }
    metrics.add("func.exec_mips",
                insts / log.total(run, "func.execute") / 1e6, "Minst/s");
}

/**
 * The first CapturedTrace::warmIndex call on the sampled workload's
 * streams.  TraceCache::acquire builds the index inside the capture,
 * so it is timed here on captures made directly from an Executor.
 */
void
probeWarmIndex(std::uint64_t seed, SpanLog &log, int run, Metrics &metrics)
{
    auto configs = gridConfigs(variantsOf("F13", {"sampled"}),
                               experiment("F13").workloads, seed);
    for (const auto &config : configs) {
        std::optional<func::CapturedTrace> trace;
        {
            Scope span(&log, "func.capture_direct");
            func::Executor executor(workload::WorkloadRegistry::instance()
                                        .build(config.workloadName,
                                               config.workload));
            trace.emplace(func::CapturedTrace::capture(executor));
        }
        Scope span(&log, "func.warm_index");
        trace->warmIndex(config.core.fetch.icache.lineBytes,
                         config.core.dcache.cache.lineBytes);
    }
    metrics.add("func.warm_index_ms",
                1e3 * log.total(run, "func.warm_index"), "ms");
}

/** The captured data addresses through an L1D-shaped mem::Cache, and
 *  the captured stores through a combining core::StoreBuffer. */
void
probeCacheAndStoreBuffer(const DetailedWorkload &detailed, SpanLog &log,
                         int run, Metrics &metrics)
{
    const sim::SimConfig defaults = sim::SimConfig::defaults();
    const core::PortTechConfig tech =
        core::PortTechConfig::singlePortAllTechniques();
    double accesses = 0.0;
    double stores = 0.0;
    double hits = 0.0;
    for (const auto &[name, trace] : detailed.traces()) {
        mem::Cache cache(defaults.core.dcache.cache);
        {
            Scope span(&log, "mem.cache_replay");
            for (std::size_t i = 0; i < trace->size(); ++i) {
                const auto &inst = (*trace)[i];
                if (!inst.isMem())
                    continue;
                if (!cache.access(inst.memAddr, inst.isStore()))
                    cache.fill(inst.memAddr, inst.isStore());
                accesses += 1.0;
            }
        }
        hits += cache.hits.value();

        core::StoreBuffer buffer("sb", tech.storeBufferEntries,
                                 defaults.core.dcache.cache.lineBytes,
                                 true);
        Cycle now = 0;
        {
            Scope span(&log, "core.sb_replay");
            for (std::size_t i = 0; i < trace->size(); ++i) {
                const auto &inst = (*trace)[i];
                if (!inst.isStore())
                    continue;
                ++now;
                while (!buffer.insert(inst.memAddr, inst.memSize, now))
                    buffer.drainOne(tech.portWidthBytes, now);
                if (buffer.occupancy() * 2 > buffer.capacity())
                    buffer.drainOne(tech.portWidthBytes, now);
                stores += 1.0;
            }
            while (!buffer.empty())
                buffer.drainOne(tech.portWidthBytes, now);
        }
    }
    if (!(hits > 0.0))
        throw SimError("cache probe saw no hits");
    metrics.add("mem.cache_ns_per_access",
                1e9 * log.total(run, "mem.cache_replay") / accesses, "ns");
    metrics.add("core.sb_ns_per_store",
                1e9 * log.total(run, "core.sb_replay") / stores, "ns");
}

// ---------------------------------------------------------------------
// Command line and measurement loops

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::filesystem::path workDir = ".bench_build/work";
    std::filesystem::path baselineDir = "bench/baselines";
};

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"suite", "detailed",
                                                   "sampled", "observed"};
    return names;
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "cpe_perfbench: " << problem << "\n"
              << "usage: cpe_perfbench --workload "
                 "suite|detailed|sampled|observed --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--baselines DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--work-dir") {
            options.workDir = value;
        } else if (flag == "--baselines") {
            options.baselineDir = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (end && *end)
            usage("bad number for " + flag + ": " + value);
    }
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  options.workload) == workloadNames().end())
        usage("unknown workload '" + options.workload + "'");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &options)
{
    unsigned jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    if (name == "suite")
        return std::make_unique<SuiteWorkload>(
            options.seed, options.workDir, options.baselineDir, jobs);
    if (name == "detailed")
        return std::make_unique<DetailedWorkload>(
            options.seed, options.baselineDir, jobs);
    if (name == "sampled")
        return std::make_unique<SampledWorkload>(options.seed,
                                                 options.baselineDir);
    return std::make_unique<ObservedWorkload>(options.seed, jobs);
}

/** Whether @p name's caches start empty, for the run log. */
const char *
cacheState(const std::string &name)
{
    if (name == "suite")
        return "trace cache starts empty every pass (memory only, no spill "
               "directory)";
    if (name == "sampled")
        return "trace cache starts empty every pass (memory only)";
    return "traces captured during set-up; every pass replays them";
}

/** End-to-end metrics: repeated set-up, then passes until the time is
 *  used up, each metric the median over its repetitions. */
void
measure(const Options &options, Tally &tally, Metrics &metrics)
{
    auto workload = makeWorkload(options.workload, options);
    // Short set-ups repeat more, so their median settles.
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < 5 || (setup_total < 0.5 && setups.size() < 50)) {
        auto start = Clock::now();
        workload->setup(nullptr);
        setups.push_back(secondsBetween(start, Clock::now()));
        setup_total += setups.back();
    }

    std::vector<Pass> passes;
    double elapsed = 0.0;
    do {
        passes.push_back(workload->pass(nullptr, tally));
        elapsed += passes.back().wallS;
    } while (elapsed + elapsed / passes.size() <= options.seconds);
    double peak_rss_mb = peakRssMb();

    Verdict verdict = workload->verify(tally);
    std::vector<double> walls;
    std::vector<double> mips;
    for (const auto &pass : passes) {
        walls.push_back(pass.wallS);
        mips.push_back(static_cast<double>(pass.insts +
                                           verdict.extraInstsPerPass) /
                       pass.wallS / 1e6);
    }
    std::cerr << "perfbench: " << options.workload << ": "
              << passes.size() << " pass(es), "
              << cacheState(options.workload) << "\n"
              << "perfbench: pass walls (s):";
    for (double wall : walls)
        std::cerr << " " << wall;
    std::cerr << "\n";

    metrics.add("setup_s", median(setups), "s");
    metrics.add("wall_s", median(walls), "s");
    metrics.add("sim_mips", median(mips), "Minst/s");
    metrics.add("peak_rss_mb", peak_rss_mb, "MB");
    metrics.add("ok_frac",
                tally.attempted ? 1.0 - static_cast<double>(tally.failed) /
                                            tally.attempted
                                : 0.0,
                "ratio");
    metrics.add("ipc_accuracy_pct", verdict.accuracyPct, "%");
}

/** Per-layer metrics: every workload traced once (the named one also
 *  untraced once, for the overhead), then the layer probes. */
void
measureLayers(const Options &options, Tally &tally, Metrics &metrics)
{
    SpanLog log;
    double overhead_s = 0.0;
    std::unique_ptr<Workload> detailed_owner;
    DetailedWorkload *detailed = nullptr;
    for (const auto &name : workloadNames()) {
        auto workload = makeWorkload(name, options);
        int run = log.beginRun();
        {
            Scope span(&log, "bench." + name + ".setup");
            workload->setup(&log);
        }
        if (name == options.workload) {
            double untraced = workload->pass(nullptr, tally).wallS;
            Scope span(&log, "bench." + name + ".pass");
            overhead_s = workload->pass(&log, tally).wallS - untraced;
        } else {
            Scope span(&log, "bench." + name + ".pass");
            workload->pass(&log, tally);
        }
        {
            Scope span(&log, "bench." + name + ".verify");
            workload->verify(tally);
        }
        workload->layerMetrics(log, run, metrics);
        if (name == "detailed") {
            detailed = static_cast<DetailedWorkload *>(workload.get());
            detailed_owner = std::move(workload);
        }
    }
    int run = log.beginRun();
    probeExecutor(options.seed, log, run, metrics);
    probeWarmIndex(options.seed, log, run, metrics);
    probeCacheAndStoreBuffer(*detailed, log, run, metrics);

    for (const auto &[layer, seconds] : log.selfSecondsByLayer())
        metrics.add("self_s." + layer, seconds, "s");
    metrics.add("trace.overhead_s", overhead_s, "s");
    log.write(options.workDir / ("spans-" + options.workload + ".jsonl"));
}

} // namespace

int
main(int argc, char **argv)
{
    // The benchmark pins what it measures: F13 reads its problem size
    // and the sweep runner its worker count from the environment.
    unsetenv("CPESIM_F13_SCALE");
    unsetenv("CPESIM_JOBS");
    Options options = parseArgs(argc, argv);
    setVerbose(false);
    try {
        std::filesystem::create_directories(options.workDir);
        Tally tally;
        Metrics metrics;
        if (options.trace)
            measureLayers(options, tally, metrics);
        else
            measure(options, tally, metrics);
        Json result = Json::object();
        result["correct"] = tally.failed == 0 && tally.attempted > 0;
        result["attempted"] = tally.attempted;
        result["failed"] = tally.failed;
        result["metrics"] = metrics.json();
        std::cout << result.dump() << std::endl;
        return 0;
    } catch (const std::exception &error) {
        std::cerr << "cpe_perfbench: " << error.what() << "\n";
        return 1;
    }
}
