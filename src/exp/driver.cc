#include "exp/driver.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "exp/registry.hh"
#include "sim/result_store.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/retry.hh"
#include "util/table.hh"
#include "workload/registry.hh"

namespace cpe::exp {

namespace {

/** Documented exit codes (kUsage, docs/robustness.md). */
constexpr int ExitOk = 0;
constexpr int ExitRunFailure = 1;    ///< run failures (--keep-going),
                                     ///< runtime/IO errors
constexpr int ExitConfigError = 2;   ///< config or usage errors
constexpr int ExitBaselineDrift = 3; ///< --check found drift

/** A sink for table output when the stdout format is csv/json. */
class NullBuffer : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
};

constexpr const char *kUsage =
    "usage: cpe_eval <mode> [options]\n"
    "modes (exactly one):\n"
    "  --list                   list registered experiments\n"
    "  --run <ids|all>          run experiments (comma-separated ids,\n"
    "                           e.g. F1,F5,T3)\n"
    "  --check                  regression gate: re-run each\n"
    "                           experiment's gated grid and compare\n"
    "                           geomean IPCs against --baseline\n"
    "  --write-baseline DIR     record baselines (reduced workload\n"
    "                           suite) into DIR\n"
    "  --validate               check every config the selected\n"
    "                           experiments would run, without running\n"
    "                           them; list all diagnostics\n"
    "options:\n"
    "  --workloads a,b,c        override the evaluation workload suite\n"
    "  --jobs N                 sweep worker threads (default: all\n"
    "                           cores, or CPESIM_JOBS)\n"
    "  --format table|csv|json  stdout rendering for --run\n"
    "                           (default: table)\n"
    "  --out DIR                also write one JSON results document\n"
    "                           per experiment into DIR\n"
    "  --baseline DIR           baseline directory for --check\n"
    "  --tolerance PCT          allowed geomean-IPC drift for --check\n"
    "                           (default: 1)\n"
    "  --keep-going             isolate per-run failures: finish the\n"
    "                           sweep, record structured \"errors\"\n"
    "                           entries in the JSON documents, exit\n"
    "                           non-zero with a failure summary\n"
    "  --fault-inject W:KIND    testing hook: sabotage workload W's\n"
    "                           configs (KIND: config | hang);\n"
    "                           repeatable\n"
    "  --trace FILE             write a structured JSONL event trace\n"
    "                           of every run to FILE (schema:\n"
    "                           docs/observability.md)\n"
    "  --sample-cycles N        sample interval stats every N cycles;\n"
    "                           intervals land in the JSON results\n"
    "                           documents and the trace (0 = off)\n"
    "  --profile[=N]            attribute stalls to static PCs: print\n"
    "                           a top-N table per run (default N: 10)\n"
    "                           and add a \"profile\" member to the\n"
    "                           JSON results documents\n"
    "  --trace-cache-mb N       resident-set bound for the shared\n"
    "                           functional-trace cache, MiB (default:\n"
    "                           512; colder captures are dropped)\n"
    "  --sample-mode MODE       SMARTS-style sampled simulation for\n"
    "                           every run: off | periodic | fixed\n"
    "                           (default: off; see docs/reproducing.md)\n"
    "  --sample-insts N         instructions measured per sample\n"
    "                           interval (default: 2000)\n"
    "  --sample-warmup N        detailed stats-frozen warm-up before\n"
    "                           each interval (default: 1000)\n"
    "  --sample-period N        periodic mode: instructions between\n"
    "                           measurement starts (default: 100000)\n"
    "  --sample-intervals N     fixed mode: measurements spread over\n"
    "                           the stream (default: 30)\n"
    "  --sample-confidence C    confidence level of the reported IPC\n"
    "                           interval (default: 0.95)\n"
    "  --no-replay              execute the functional model live for\n"
    "                           every run instead of capturing once per\n"
    "                           workload and replaying (results are\n"
    "                           byte-identical either way)\n"
    "  --chaos SPEC             deterministic fault injection at every\n"
    "                           I/O and lifecycle seam; SPEC is\n"
    "                           seed=N,rate=P[,point=GLOB] (see\n"
    "                           docs/robustness.md for the point\n"
    "                           catalog)\n"
    "  --retries N              retries per run after a transient\n"
    "                           failure (default: 1; deterministic\n"
    "                           failures are never retried)\n"
    "  --retry-backoff-ms N     base delay before a retry, doubled per\n"
    "                           attempt with deterministic jitter\n"
    "                           (default: 0 = retry immediately)\n"
    "  --store DIR              keep every run's result in DIR as well\n"
    "                           as in memory: a rerun (or a resumed,\n"
    "                           interrupted sweep) simulates only the\n"
    "                           machines DIR does not hold yet\n"
    "  --version                print simulator and result-store\n"
    "                           schema versions and exit\n"
    "(every --flag VALUE is also accepted as --flag=VALUE; the one\n"
    "exception is --profile[=N], which takes N only after '=')\n"
    "exit codes: 0 success; 1 run failures (--keep-going) or runtime\n"
    "errors; 2 configuration/usage errors (including --validate FAIL);\n"
    "3 baseline drift (--check FAIL)\n";

/** A command-line mistake: evalMain prints it with kUsage, exit 2. */
class UsageError : public ConfigError
{
  public:
    using ConfigError::ConfigError;
};

[[noreturn]] void
usageError(const std::string &message)
{
    throw UsageError(message);
}

/**
 * Parse @p text as the whole value of @p flag: a non-negative decimal
 * number of type T.  Junk, a sign, trailing characters, or a value out
 * of T's range is a usage error — never a silent 0.
 */
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || stop != end ||
        !(value >= T{}))
        usageError("flag '" + flag + "' wants a non-negative number, got '" +
                   text + "'");
    return value;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

enum class Mode { None, List, Run, Check, WriteBaseline, Validate };
enum class Format { Table, Csv, Json };

struct Options
{
    Mode mode = Mode::None;
    Format format = Format::Table;
    std::vector<std::string> ids;       ///< empty = all registered
    std::vector<std::string> workloads; ///< empty = evaluation suite
    std::string outDir;
    std::string baselineDir;
    double tolerancePct = 1.0;
    bool keepGoing = false;
    /** --fault-inject plan: (workload, kind) pairs. */
    std::vector<std::pair<std::string, std::string>> faultPlan;
    std::string tracePath;      ///< --trace: "" = off
    Cycle sampleCycles = 0;     ///< --sample-cycles: 0 = off
    unsigned profileTop = 0;    ///< --profile[=N]: 0 = off
    bool noReplay = false;      ///< --no-replay: live functional runs
    std::string chaosSpec;      ///< --chaos: "" = disarmed
    unsigned retries = 1;       ///< --retries: transient retry count
    unsigned retryBackoffMs = 0; ///< --retry-backoff-ms: 0 = immediate
    std::string storeDir;       ///< --store: "" = memory only
    /** --trace-cache-mb: resident bound for the shared cache, bytes. */
    std::size_t traceCacheBytes = sim::TraceCache::DefaultMaxResidentBytes;
    /** --sample-*: sampled simulation for every run (mode off = off). */
    sim::SampleParams sample;
};

std::string
argValue(int argc, char **argv, int &i, const std::string &flag)
{
    if (i + 1 >= argc)
        usageError("flag '" + flag + "' needs a value");
    return argv[++i];
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    auto setMode = [&](Mode mode) {
        if (options.mode != Mode::None)
            usageError("pick exactly one of --list, --run, --check, "
                       "--write-baseline, --validate");
        options.mode = mode;
    };
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        // Both spellings work: "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline = false;
        if (flag.rfind("--", 0) == 0) {
            std::size_t eq = flag.find('=');
            if (eq != std::string::npos) {
                inline_value = flag.substr(eq + 1);
                flag = flag.substr(0, eq);
                has_inline = true;
            }
        }
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            return argValue(argc, argv, i, flag);
        };
        if (flag == "--list") {
            setMode(Mode::List);
        } else if (flag == "--run") {
            std::string ids = value();
            // --check/--write-baseline --run ids narrows those modes;
            // otherwise --run is its own mode.
            if (options.mode == Mode::None)
                setMode(Mode::Run);
            if (ids != "all")
                options.ids = splitList(ids);
        } else if (flag == "--check") {
            if (options.mode == Mode::Run)
                options.mode = Mode::Check;
            else
                setMode(Mode::Check);
        } else if (flag == "--write-baseline") {
            if (options.mode == Mode::Run)
                options.mode = Mode::WriteBaseline;
            else
                setMode(Mode::WriteBaseline);
            options.baselineDir = value();
        } else if (flag == "--validate") {
            if (options.mode == Mode::Run)
                options.mode = Mode::Validate;
            else
                setMode(Mode::Validate);
        } else if (flag == "--keep-going") {
            options.keepGoing = true;
        } else if (flag == "--fault-inject") {
            std::string spec = value();
            auto colon = spec.find(':');
            if (colon == std::string::npos)
                usageError("--fault-inject wants workload:kind, got '" +
                           spec + "'");
            std::string workload = spec.substr(0, colon);
            std::string kind = spec.substr(colon + 1);
            // Kind validation happens in setFaultInjection, which
            // rejects unknown kinds with a structured ConfigError
            // naming the valid ones (exit code 2).
            options.faultPlan.emplace_back(std::move(workload),
                                           std::move(kind));
        } else if (flag == "--trace") {
            options.tracePath = value();
        } else if (flag == "--sample-cycles") {
            options.sampleCycles = parseNumber<Cycle>(flag, value());
        } else if (flag == "--profile") {
            // Bare --profile must not eat the next argument: only the
            // inline =N spelling carries a value.
            options.profileTop =
                has_inline ? parseNumber<unsigned>(flag, inline_value)
                           : 10;
            if (!options.profileTop)
                usageError("--profile wants a positive top-N count");
        } else if (flag == "--trace-cache-mb") {
            // Sized in bytes: a count whose byte size does not fit
            // would wrap to a bound that evicts every capture.
            constexpr std::size_t max_mb =
                std::numeric_limits<std::size_t>::max() >> 20;
            const auto mb = parseNumber<std::size_t>(flag, value());
            if (!mb)
                usageError("--trace-cache-mb wants a positive size");
            if (mb > max_mb)
                usageError("--trace-cache-mb " + std::to_string(mb) +
                           " does not fit in bytes (at most " +
                           std::to_string(max_mb) + ")");
            options.traceCacheBytes = mb << 20;
        } else if (flag == "--sample-mode") {
            // parseMode throws ConfigError on junk; surface it as a
            // usage error here, before any machine is built.
            try {
                options.sample.mode =
                    sim::SampleParams::parseMode(value());
            } catch (const ConfigError &error) {
                usageError(error.what());
            }
        } else if (flag == "--sample-insts") {
            options.sample.measureInsts =
                parseNumber<std::uint64_t>(flag, value());
        } else if (flag == "--sample-warmup") {
            options.sample.warmupInsts =
                parseNumber<std::uint64_t>(flag, value());
        } else if (flag == "--sample-period") {
            options.sample.periodInsts =
                parseNumber<std::uint64_t>(flag, value());
        } else if (flag == "--sample-intervals") {
            options.sample.intervals =
                parseNumber<std::uint64_t>(flag, value());
        } else if (flag == "--sample-confidence") {
            options.sample.confidence = parseNumber<double>(flag, value());
        } else if (flag == "--no-replay") {
            options.noReplay = true;
        } else if (flag == "--chaos") {
            options.chaosSpec = value();
        } else if (flag == "--retries") {
            options.retries = parseNumber<unsigned>(flag, value());
        } else if (flag == "--retry-backoff-ms") {
            options.retryBackoffMs = parseNumber<unsigned>(flag, value());
        } else if (flag == "--store") {
            options.storeDir = value();
            if (options.storeDir.empty())
                usageError("--store wants a directory");
        } else if (flag == "--workloads") {
            options.workloads =
                splitList(value());
        } else if (flag == "--jobs") {
            sim::SweepRunner::setDefaultJobs(
                parseNumber<unsigned>(flag, value()));
        } else if (flag == "--format") {
            std::string format = value();
            if (format == "table")
                options.format = Format::Table;
            else if (format == "csv")
                options.format = Format::Csv;
            else if (format == "json")
                options.format = Format::Json;
            else
                usageError("unknown format '" + format +
                           "' (expected table, csv, or json)");
        } else if (flag == "--out") {
            options.outDir = value();
        } else if (flag == "--baseline") {
            options.baselineDir = value();
        } else if (flag == "--tolerance") {
            options.tolerancePct = parseNumber<double>(flag, value());
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }
    if (options.mode == Mode::None)
        usageError("no mode given");
    return options;
}

/** Resolve requested ids (empty = all) to experiments, canonical
 * order. */
std::vector<const Experiment *>
selectExperiments(const std::vector<std::string> &ids)
{
    auto &registry = ExperimentRegistry::instance();
    if (ids.empty())
        return registry.all();
    std::vector<const Experiment *> out;
    for (const auto &raw : ids) {
        std::string id = raw;
        for (auto &c : id)
            c = static_cast<char>(std::toupper(
                static_cast<unsigned char>(c)));
        out.push_back(&registry.get(id));
    }
    return out;
}

void
validateWorkloads(const std::vector<std::string> &workloads)
{
    auto &registry = workload::WorkloadRegistry::instance();
    for (const auto &name : workloads)
        if (!registry.has(name))
            throw ConfigError(Msg() << "unknown workload '" << name
                                    << "' in --workloads");
}

/** The rows of suite-driven grids: --workloads, else the evaluation
 *  suite. */
std::vector<std::string>
suiteOf(const Options &options)
{
    return options.workloads.empty()
               ? workload::WorkloadRegistry::evaluationSuite()
               : options.workloads;
}

int
listExperiments()
{
    TextTable table;
    table.addHeader({"id", "title", "variants", "workloads",
                     "baseline", "description"});
    for (const auto *experiment :
         ExperimentRegistry::instance().all()) {
        GridSpec gated = experiment->gatedGrid({});
        table.addRow({experiment->id, experiment->title,
                      std::to_string(gated.variants.size()),
                      gated.workloads.empty()
                          ? "suite"
                          : std::to_string(gated.workloads.size())
                                + " custom",
                      gated.baseline.empty() ? "-" : gated.baseline,
                      experiment->description.empty()
                          ? "-"
                          : experiment->description});
    }
    std::cout << table.render();
    std::cout << "\n(run with --run <ids|all>; sim_speed microbenchmarks "
                 "live in bench_sim_speed)\n";
    return 0;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    if (CPE_FAULT_POINT("results.write"))
        throw IoError("chaos: injected fault at results.write");
    std::ofstream out(path);
    if (!out)
        throw IoError(Msg() << "cannot write " << path.string());
    out << text;
    if (!out.flush())
        throw IoError(Msg() << "failed writing " << path.string());
}

void
emitCsv(const Json &doc, bool &header_done)
{
    if (!header_done) {
        std::cout << "experiment,grid,workload,config,ipc\n";
        header_done = true;
    }
    const std::string &id = doc.at("experiment").asString();
    for (const auto &[grid_key, grid] : doc.at("grids").members()) {
        for (const auto &[workload, row] :
             grid.at("ipc", id).members()) {
            for (const auto &[config, ipc] : row.members()) {
                TextTable csv_row;
                csv_row.addRow({id, grid_key, workload, config,
                                Json(ipc.asNumber()).dump()});
                std::cout << csv_row.renderCsv();
            }
        }
    }
}

int
runExperiments(const Options &options)
{
    auto experiments = selectExperiments(options.ids);
    validateWorkloads(options.workloads);
    if (!options.outDir.empty())
        std::filesystem::create_directories(options.outDir);

    NullBuffer null_buffer;
    std::ostream null_stream(&null_buffer);
    bool csv_header_done = false;
    unsigned failed_runs = 0;
    std::vector<std::string> failure_summaries;

    // Every grid of every selected experiment runs first, as one pool;
    // the bodies then only render.  F13 still times its own runs, alone,
    // as its body renders.
    Schedule schedule(experiments, suiteOf(options));

    for (const auto *experiment : experiments) {
        // Each experiment starts from the old per-binary defaults so
        // a multi-experiment run renders identically to the former
        // standalone binaries.
        setVerbose(true);
        std::ostream &out = options.format == Format::Table
                                ? static_cast<std::ostream &>(std::cout)
                                : null_stream;
        out << "==== " << experiment->id << ": " << experiment->title
            << " ====\n\n";
        Context context(*experiment, out, options.workloads,
                        options.keepGoing, &schedule);
        if (options.keepGoing) {
            // A failed run leaves holes in the grids; an experiment
            // body that trips over one (a missing cell, an absent
            // baseline column) becomes part of the failure report
            // rather than ending the whole evaluation.
            try {
                experiment->run(context);
            } catch (const SimError &error) {
                context.noteBodyError(error);
            }
        } else {
            experiment->run(context);
        }
        failed_runs += context.failedRuns();
        failure_summaries.insert(failure_summaries.end(),
                                 context.failureSummaries().begin(),
                                 context.failureSummaries().end());

        if (options.format == Format::Json)
            std::cout << context.doc().dump(2) << "\n";
        else if (options.format == Format::Csv)
            emitCsv(context.doc(), csv_header_done);
        if (!options.outDir.empty())
            writeFile(std::filesystem::path(options.outDir) /
                          (experiment->id + ".json"),
                      context.doc().dump(2) + "\n");
    }
    setVerbose(true);
    if (failed_runs) {
        // To stderr: --format json/csv callers parse stdout.
        std::cerr << "\nkeep-going: " << failed_runs
                  << " failure(s):\n";
        for (const auto &line : failure_summaries)
            std::cerr << "  " << line << "\n";
        return ExitRunFailure;
    }
    return ExitOk;
}

int
validateExperiments(const Options &options)
{
    auto experiments = selectExperiments(options.ids);
    validateWorkloads(options.workloads);

    TextTable table;
    table.addHeader({"experiment", "workload", "config", "field",
                     "problem"});
    unsigned diagnostics = 0;
    unsigned configs_checked = 0;
    const auto suite = suiteOf(options);
    for (const auto *experiment : experiments) {
        for (const auto &spec : experiment->grids(suite)) {
            for (const auto &config :
                 suiteConfigs(spec.variants, spec.workloads)) {
                ++configs_checked;
                for (const auto &diagnostic : config.validate()) {
                    table.addRow({experiment->id, config.workloadName,
                                  config.tag(), diagnostic.field,
                                  diagnostic.message});
                    ++diagnostics;
                }
            }
        }
    }
    if (diagnostics) {
        std::cout << table.render();
        std::cout << "\nvalidate: FAIL — " << diagnostics
                  << " problem(s) across " << configs_checked
                  << " config(s)\n";
        return ExitConfigError;
    }
    std::cout << "validate: OK — " << configs_checked
              << " config(s) across " << experiments.size()
              << " experiment(s)\n";
    return ExitOk;
}

/**
 * Run the gated grids @p specs as one pool, minus their gate-excluded
 * columns (CI-bearing sampled estimates drift with sampling noise, so a
 * drift gate over them would only measure the sampler), and fold each
 * into a grid.  Throws the first failed run's error.
 */
std::vector<sim::ResultGrid>
runGate(std::vector<GridSpec> specs)
{
    for (auto &spec : specs)
        std::erase_if(spec.variants, [&](const Variant &variant) {
            return std::find(spec.gateExclude.begin(),
                             spec.gateExclude.end(),
                             variant.label) != spec.gateExclude.end();
        });
    std::vector<sim::ResultGrid> grids;
    for (const GridRuns &runs : runGrids(specs)) {
        sim::ResultGrid &grid = grids.emplace_back("IPC");
        for (const auto &run : runs.runs) {
            if (!run.outcome.ok())
                std::rethrow_exception(run.outcome.exception);
            grid.add(run.outcome.result);
        }
    }
    return grids;
}

int
writeBaselines(const Options &options)
{
    auto experiments = selectExperiments(options.ids);
    validateWorkloads(options.workloads);
    std::filesystem::create_directories(options.baselineDir);
    const auto &rows =
        options.workloads.empty() ? reducedSuite() : options.workloads;
    std::vector<GridSpec> specs;
    for (const auto *experiment : experiments)
        specs.push_back(experiment->gatedGrid(rows));
    auto grids = runGate(specs);
    for (std::size_t i = 0; i < experiments.size(); ++i) {
        Json grid_json = grids[i].toJson();
        Json doc = Json::object();
        doc["experiment"] = experiments[i]->id;
        doc["schema"] = 1;
        doc["title"] = experiments[i]->title;
        doc["workloads"] = grid_json.at("workloads");
        doc["configs"] = grid_json.at("configs");
        doc["geomean_ipc"] = grid_json.at("geomean_ipc");
        doc["ipc"] = grid_json.at("ipc");
        auto path = std::filesystem::path(options.baselineDir) /
                    (experiments[i]->id + ".json");
        writeFile(path, doc.dump(2) + "\n");
        std::cout << "wrote " << path.string() << "\n";
    }
    return 0;
}

/**
 * Compare @p grid, @p spec's run, against @p id's @p baseline and
 * append one row per config (experiment, config, baseline geomean,
 * current geomean, drift%, status) to @p report.
 * @return number of failing configs (drift beyond @p tolerance_pct,
 * or config sets that do not match the baseline's).
 */
unsigned
checkGrid(const std::string &id, const Json &baseline,
          const GridSpec &spec, const sim::ResultGrid &grid,
          double tolerance_pct,
          std::vector<std::vector<std::string>> &report)
{
    unsigned failures = 0;
    const auto &base_geomeans =
        baseline.at("geomean_ipc", "baseline " + id);
    for (const auto &[config, base_value] : base_geomeans.members()) {
        const auto &configs = grid.configs();
        bool present = std::find(configs.begin(), configs.end(),
                                 config) != configs.end();
        if (!present) {
            report.push_back({id, config,
                              TextTable::num(base_value.asNumber()),
                              "-", "-", "MISSING"});
            ++failures;
            continue;
        }
        double base = base_value.asNumber();
        double current = grid.geomeanIpc(config);
        double drift_pct =
            base != 0.0 ? 100.0 * (current - base) / base : 0.0;
        bool ok = std::abs(drift_pct) <= tolerance_pct;
        report.push_back(
            {id, config, TextTable::num(base), TextTable::num(current),
             TextTable::num(drift_pct, 2) + "%", ok ? "ok" : "FAIL"});
        if (!ok)
            ++failures;
    }
    // New columns the baseline has never seen are also drift: the
    // gate's contract is "this grid, exactly".
    for (const auto &config : grid.configs()) {
        if (!base_geomeans.find(config)) {
            report.push_back({id, config, "-",
                              TextTable::num(grid.geomeanIpc(config)),
                              "-", "NEW"});
            ++failures;
        }
    }
    // Gate-excluded columns are visible but never counted: the report
    // says the gate chose to skip them rather than silently narrowing.
    for (const auto &label : spec.gateExclude)
        report.push_back({id, label, "-", "-", "-", "SKIP"});
    return failures;
}

int
checkBaselines(const Options &options)
{
    if (options.baselineDir.empty())
        usageError("--check needs --baseline DIR");
    auto experiments = selectExperiments(options.ids);

    // Each gated grid runs over its baseline's rows.
    std::vector<Json> baselines;
    std::vector<GridSpec> specs;
    for (const auto *experiment : experiments) {
        const std::string &id = experiment->id;
        const Json &baseline =
            baselines.emplace_back(loadBaseline(options.baselineDir, id));
        std::vector<std::string> rows;
        for (const auto &workload :
             baseline.at("workloads", "baseline " + id).items())
            rows.push_back(workload.asString());
        if (rows.empty())
            throw ConfigError(Msg() << "baseline " << id
                                    << " lists no workloads");
        specs.push_back(experiment->gatedGrid(rows));
    }
    auto grids = runGate(specs);

    std::vector<std::vector<std::string>> report;
    unsigned failures = 0;
    unsigned configs_checked = 0;
    for (std::size_t i = 0; i < experiments.size(); ++i) {
        failures += checkGrid(experiments[i]->id, baselines[i], specs[i],
                              grids[i], options.tolerancePct, report);
        configs_checked += static_cast<unsigned>(
            baselines[i].at("geomean_ipc").members().size());
    }

    TextTable table;
    table.addHeader({"experiment", "config", "baseline", "current",
                     "drift", "status"});
    for (const auto &row : report)
        table.addRow(row);
    std::cout << table.render();
    if (failures) {
        std::cout << "\nregression gate: FAIL — " << failures
                  << " config(s) drifted beyond "
                  << TextTable::num(options.tolerancePct, 2)
                  << "% (refresh intentional changes with "
                     "--write-baseline)\n";
        return ExitBaselineDrift;
    }
    std::cout << "\nregression gate: PASS — " << experiments.size()
              << " experiment(s), " << configs_checked
              << " config geomeans within "
              << TextTable::num(options.tolerancePct, 2) << "%\n";
    return ExitOk;
}

} // namespace

const std::vector<std::string> &
reducedSuite()
{
    static const std::vector<std::string> suite = {"compress", "matmul",
                                                   "copy"};
    return suite;
}

Json
loadBaseline(const std::string &dir, const std::string &id)
{
    auto path = std::filesystem::path(dir) / (id + ".json");
    if (CPE_FAULT_POINT("baseline.read"))
        throw IoError("chaos: injected fault at baseline.read");
    std::ifstream in(path);
    if (!in)
        throw IoError(Msg()
                      << "no baseline for experiment " << id << " at "
                      << path.string()
                      << " (record one with cpe_eval --write-baseline)");
    std::ostringstream text;
    text << in.rdbuf();
    Json doc = Json::parse(text.str(), "baseline " + path.string());
    const std::string &doc_id =
        doc.at("experiment", path.string()).asString();
    if (doc_id != id)
        throw ConfigError(Msg() << "baseline " << path.string()
                                << " is for '" << doc_id << "', not '"
                                << id << "'");
    return doc;
}

namespace {

/** Puts back, on every exit path, the process-wide hooks evalMain
 *  installs: it clears the trace sink, trace cache, and result store
 *  it points at its own locals, and the sampling parameters (which
 *  would otherwise turn later in-process sweeps into sampled ones),
 *  and restores the sweep job count, retry policy, fault plan, and
 *  chaos schedule the caller had. */
struct HookReset
{
    unsigned jobs = sim::SweepRunner::defaultJobsOverride();
    util::RetryPolicy retryPolicy = sim::SweepRunner::defaultRetryPolicy();
    std::vector<std::pair<std::string, std::string>> faultPlan =
        faultInjection();
    bool chaosArmed = util::FaultInjector::armed();
    util::ChaosSpec chaos = util::FaultInjector::instance().spec();

    HookReset() = default;
    ~HookReset()
    {
        setObservability(nullptr, 0, 0);
        setTraceCache(nullptr);
        setSampling(sim::SampleParams{});
        sim::ResultStore::setActive(nullptr);
        sim::SweepRunner::setDefaultJobs(jobs);
        sim::SweepRunner::setDefaultRetryPolicy(retryPolicy);
        setFaultInjection(faultPlan);
        if (chaosArmed)
            util::FaultInjector::instance().arm(chaos);
        else
            util::FaultInjector::instance().disarm();
    }
    HookReset(const HookReset &) = delete;
    HookReset &operator=(const HookReset &) = delete;
};

/** One stderr line of memo accounting (stdout belongs to --format). */
void
printStoreSummary(const sim::ResultStore &store)
{
    sim::ResultStore::Stats stats = store.stats();
    if (!stats.fetches)
        return;
    std::cerr << "store: " << stats.fetches << " run(s), "
              << stats.computes << " simulated, "
              << stats.fetches - stats.computes << " reused";
    if (!store.dir().empty())
        std::cerr << " (" << stats.diskHits << " loaded from "
                  << store.dir() << ")";
    if (stats.insertFailures)
        std::cerr << ", " << stats.insertFailures << " not stored";
    std::cerr << "\n";
}

int
runMode(const Options &options)
{
    switch (options.mode) {
      case Mode::List:
        return listExperiments();
      case Mode::Run:
        return runExperiments(options);
      case Mode::Check:
        return checkBaselines(options);
      case Mode::WriteBaseline:
        return writeBaselines(options);
      case Mode::Validate:
        return validateExperiments(options);
      case Mode::None:
        break;
    }
    usageError("no mode given");
}

} // namespace

int
evalMain(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--version") == 0) {
            std::cout << "cpe_eval: " << sim::versionSummary() << "\n";
            return ExitOk;
        }
    // The CLI boundary: everything below throws SimError for
    // recoverable failures; only here do they become an exit code
    // (usage and ConfigError -> 2, everything else -> 1; see kUsage).
    try {
        HookReset reset;
        Options options = parseArgs(argc, argv);
        setFaultInjection(options.faultPlan);
        // Chaos arms (or explicitly disarms — evalMain may be called
        // repeatedly in-process by the tests) before any run starts.
        if (options.chaosSpec.empty()) {
            util::FaultInjector::instance().disarm();
        } else {
            util::FaultInjector::instance().arm(
                util::ChaosSpec::parse(options.chaosSpec));
        }
        // Retry policy for every sweep this invocation runs: N retries
        // on top of the first attempt, exponential backoff from the
        // base delay.
        util::RetryPolicy retry_policy;
        retry_policy.maxAttempts = options.retries + 1;
        retry_policy.backoffBaseMs = options.retryBackoffMs;
        sim::SweepRunner::setDefaultRetryPolicy(retry_policy);
        // One shared sink for the whole invocation: concurrent sweep
        // runs interleave whole event batches, each line tagged with
        // its run id.
        std::unique_ptr<obs::FileTraceSink> trace_sink;
        if (!options.tracePath.empty())
            trace_sink =
                std::make_unique<obs::FileTraceSink>(options.tracePath);
        setObservability(trace_sink.get(), options.sampleCycles,
                         options.profileTop);
        // Execute-once/replay-many, on by default: one shared cache
        // for the invocation means each grid runs its functional model
        // once per workload and every timing variant replays the
        // capture (byte-identical results, see DESIGN.md).
        std::unique_ptr<sim::TraceCache> trace_cache;
        if (!options.noReplay)
            trace_cache =
                std::make_unique<sim::TraceCache>(options.traceCacheBytes);
        setTraceCache(trace_cache.get());
        setSampling(options.sample);
        // One result memo for the invocation: a machine that several
        // experiments (or grids) run is simulated once.  With --store
        // the memo also lives in DIR, so a rerun — or a sweep resumed
        // after a crash — simulates only what DIR does not hold yet.
        sim::ResultStore store(options.storeDir);
        sim::ResultStore::setActive(&store);
        int rc = runMode(options);
        printStoreSummary(store);
        return rc;
    } catch (const UsageError &error) {
        std::cerr << "cpe_eval: " << error.what() << "\n" << kUsage;
        return ExitConfigError;
    } catch (const ConfigError &error) {
        std::cerr << "cpe_eval: " << error.kind()
                  << " error: " << error.what() << "\n";
        return ExitConfigError;
    } catch (const SimError &error) {
        std::cerr << "cpe_eval: " << error.kind() << " error: "
                  << error.what() << "\n";
        return ExitRunFailure;
    }
}

} // namespace cpe::exp
