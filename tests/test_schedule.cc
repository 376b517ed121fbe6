/**
 * @file
 * The pooled schedule behind `cpe_eval --run`: every declared grid of
 * every selected experiment runs in one pool before the bodies render,
 * and nothing that prints moves.  A golden written by the driver that
 * ran experiments one at a time pins the derived columns, and F3's,
 * F10's and F11's rate columns print what their runs record; contexts
 * without a schedule (one grid at a time, as perfbench's traced pass
 * runs them) render what evalMain renders; four workers render what
 * one does; and evalMain hands every process-wide hook back as it
 * found it.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "exp/driver.hh"
#include "exp/registry.hh"
#include "sim/result_store.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/fault.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace cpe::exp {
namespace {

struct EvalRun
{
    int rc;
    std::string out;
    std::string err;
};

EvalRun
eval(std::vector<std::string> args)
{
    args.insert(args.begin(), "cpe_eval");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    int rc = evalMain(static_cast<int>(argv.size()), argv.data());
    std::string err = testing::internal::GetCapturedStderr();
    std::string out = testing::internal::GetCapturedStdout();
    return {rc, out, err};
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Sets an environment variable for one scope. */
struct ScopedEnv
{
    std::string name;
    ScopedEnv(const char *var, const char *value) : name(var)
    {
        setenv(var, value, 1);
    }
    ~ScopedEnv() { unsetenv(name.c_str()); }
};

/** A scratch directory under the gtest temp dir, private to this
 *  process (the TSan binary runs these tests beside cpe_tests). */
struct ScratchDir
{
    std::filesystem::path dir;
    explicit ScratchDir(const std::string &name)
        : dir(std::filesystem::path(::testing::TempDir()) /
              (name + "_" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
    }
    ~ScratchDir() { std::filesystem::remove_all(dir); }
};

/** @p stdout_text with F13's wall-clock cells masked: the only cells
 *  two runs may disagree on. */
std::string
maskF13Timings(const std::string &stdout_text)
{
    static const std::regex cells(R"(\s+[\d.]+\s+[\d.]+\s+[\d.]+x$)");
    static const std::regex geomean(R"(geomean [\d.]+x)");
    std::istringstream in(stdout_text);
    std::string out;
    bool f13 = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("==== ", 0) == 0)
            f13 = line.rfind("==== F13:", 0) == 0;
        if (f13) {
            line = std::regex_replace(line, cells, " <ms> <ms> <x>");
            line = std::regex_replace(line, geomean, "geomean <x>");
        }
        out += line + "\n";
    }
    return out;
}

/** A results document as text, minus F13's wall-clock members. */
std::string
comparable(Json doc)
{
    if (doc.at("experiment").asString() != "F13")
        return doc.dump(2) + "\n";
    Json headlines = Json::object();
    for (const auto &[key, value] : doc.at("headlines").members())
        if (key != "geomean_speedup")
            headlines[key] = value;
    doc["headlines"] = std::move(headlines);
    Json rows = Json::array();
    for (const auto &row : doc.at("sampled_validation").items()) {
        Json kept = Json::object();
        for (const auto &[key, value] : row.members())
            if (key != "full_ms" && key != "sampled_ms" && key != "speedup")
                kept[key] = value;
        rows.push(std::move(kept));
    }
    doc["sampled_validation"] = std::move(rows);
    return doc.dump(2) + "\n";
}

std::string
comparableFile(const std::filesystem::path &path)
{
    return comparable(Json::parse(readFile(path), path.string()));
}

TEST(Schedule, DerivedColumnsMatchTheGolden)
{
    // Every derived column on a suite where the grids hold their
    // machines: written by the driver that ran each experiment alone,
    // with side simulations, before grids were pooled.
    const std::string path =
        std::string(CPE_GOLDEN_DIR) + "/eval_derived_columns.txt";
    const std::vector<std::string> args = {"--run", "T3,F3,F4,F9,F10,F11",
                                           "--workloads", "copy"};
    if (std::getenv("CPE_REGEN_GOLDEN")) {
        auto run = eval({args[0], args[1], args[2], args[3], "--jobs", "1"});
        ASSERT_EQ(run.rc, 0) << run.err;
        std::ofstream(path) << run.out;
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << path
        << " (generate with CPE_REGEN_GOLDEN=1)";
    for (const char *jobs : {"1", "3"}) {
        auto run = eval({args[0], args[1], args[2], args[3], "--jobs", jobs});
        ASSERT_EQ(run.rc, 0) << run.err;
        EXPECT_EQ(run.out, golden) << "--jobs " << jobs;
    }
}

/**
 * The body rows of the table captioned @p caption in @p stdout_text,
 * keyed by their first cell.  TextTable puts two or more spaces
 * between cells and none inside one.
 */
std::map<std::string, std::vector<std::string>>
tableRows(const std::string &stdout_text, const std::string &caption)
{
    static const std::regex gap(" {2,}");
    std::map<std::string, std::vector<std::string>> rows;
    std::size_t at = stdout_text.find(caption + "\n");
    if (at == std::string::npos)
        return rows;
    std::istringstream lines(stdout_text.substr(at));
    std::string line;
    for (int skip = 0; skip < 3; ++skip)  // caption, header, rule
        std::getline(lines, line);
    while (std::getline(lines, line) && !line.empty()) {
        std::vector<std::string> cells(
            std::sregex_token_iterator(line.begin(), line.end(), gap, -1),
            std::sregex_token_iterator());
        rows[cells.front()].assign(cells.begin() + 1, cells.end());
    }
    return rows;
}

/** 100 x @p field of the one run of (@p workload, @p config) in
 *  @p grid of @p doc, printed as the tables print a percentage. */
std::string
runPercent(const Json &doc, const std::string &grid,
           const std::string &workload, const std::string &config,
           const std::string &field)
{
    std::vector<double> values;
    for (const Json &entry : doc.at("grids").at(grid).at("runs").items())
        if (entry.at("workload").asString() == workload &&
            entry.at("config").asString() == config)
            values.push_back(entry.at(field).asNumber());
    EXPECT_EQ(values.size(), 1u) << grid << ": " << workload << " / "
                                 << config;
    return values.empty() ? "<no run>"
                          : TextTable::num(100.0 * values[0], 1) + "%";
}

TEST(Schedule, F10MissColumnIsTheMeanOfItsGridRuns)
{
    // A one-workload suite: each row's miss% is the mean l1d_miss_rate
    // of that capacity's `1p all` runs, which is copy's one run.
    ScratchDir scratch("cpe_schedule_f10");
    auto run = eval({"--run", "F10", "--workloads", "copy", "--jobs", "1",
                     "--out", scratch.dir.string()});
    ASSERT_EQ(run.rc, 0) << run.err;
    Json doc = Json::parse(readFile(scratch.dir / "F10.json"), "F10.json");

    auto rows = tableRows(run.out, "Geomean IPC across the suite:");
    for (unsigned size : {8u, 16u, 32u, 64u}) {
        const std::string key = std::to_string(size) + " KiB";
        SCOPED_TRACE(key);
        ASSERT_FALSE(rows[key].empty());
        EXPECT_EQ(rows[key].back(),
                  runPercent(doc, "kib" + std::to_string(size), "copy",
                             "1p all", "l1d_miss_rate"));
    }
}

TEST(Schedule, F3AndF11RateColumnsAreTheirGridRuns)
{
    // F3's hit rate is the lb8 run's; F11's accuracy is each
    // predictor's run.  stencil joins copy because copy's lb8 hit rate
    // prints 0.0%, as the `no lb` run's would.
    ScratchDir scratch("cpe_schedule_f3_f11");
    auto run = eval({"--run", "F3,F11", "--workloads", "copy,stencil",
                     "--jobs", "1", "--out", scratch.dir.string()});
    ASSERT_EQ(run.rc, 0) << run.err;
    Json f3 = Json::parse(readFile(scratch.dir / "F3.json"), "F3.json");
    Json f11 = Json::parse(readFile(scratch.dir / "F11.json"), "F11.json");

    auto hits = tableRows(run.out,
                          "Line-buffer load hit rate (lb8, narrow port):");
    auto accuracy =
        tableRows(run.out, "Conditional-branch direction accuracy:");
    for (const std::string workload : {"copy", "stencil"}) {
        SCOPED_TRACE(workload);
        EXPECT_EQ(hits[workload],
                  std::vector<std::string>{runPercent(
                      f3, "main", workload, "lb8", "line_buffer_hit_rate")});
        std::vector<std::string> want;
        for (const char *predictor :
             {"not-taken", "bimodal", "gshare", "local"})
            want.push_back(runPercent(f11, "main", workload, predictor,
                                      "cond_accuracy"));
        EXPECT_EQ(accuracy[workload], want);
    }
}

TEST(Schedule, PlanlessContextsRenderWhatEvalMainRenders)
{
    ScopedEnv scale("CPESIM_F13_SCALE", "1");
    ScratchDir scratch("cpe_schedule_planless");
    auto scheduled = eval({"--run", "all", "--workloads", "copy", "--jobs",
                           "2", "--out", scratch.dir.string()});
    ASSERT_EQ(scheduled.rc, 0) << scheduled.err;

    // evalMain's hooks, but no schedule: each context runs a grid the
    // first time its body fetches it.
    sim::TraceCache cache;
    sim::ResultStore store;
    setTraceCache(&cache);
    sim::ResultStore::setActive(&store);
    sim::SweepRunner::setDefaultJobs(2);
    std::ostringstream out;
    for (const Experiment *entry : ExperimentRegistry::instance().all()) {
        SCOPED_TRACE(entry->id);
        setVerbose(true);
        out << "==== " << entry->id << ": " << entry->title << " ====\n\n";
        Context context(*entry, out, {"copy"});
        entry->run(context);
        EXPECT_EQ(comparable(context.doc()),
                  comparableFile(scratch.dir / (entry->id + ".json")));
    }
    setVerbose(true);
    setTraceCache(nullptr);
    sim::ResultStore::setActive(nullptr);
    sim::SweepRunner::setDefaultJobs(0);
    EXPECT_EQ(maskF13Timings(out.str()), maskF13Timings(scheduled.out));
}

/** `--run @p ids --workloads copy` renders the same at four workers as
 *  at one: stdout, stderr, exit code and every document. */
void
expectPooledMatchesSerial(const std::string &ids)
{
    ScopedEnv scale("CPESIM_F13_SCALE", "1");
    ScratchDir scratch("cpe_schedule_pooled");
    auto runAt = [&](const std::string &jobs) {
        return eval({"--run", ids, "--workloads", "copy", "--jobs", jobs,
                     "--out", (scratch.dir / jobs).string()});
    };
    auto serial = runAt("1");
    auto pooled = runAt("4");
    ASSERT_EQ(serial.rc, 0) << serial.err;
    EXPECT_EQ(pooled.rc, serial.rc);
    EXPECT_EQ(pooled.err, serial.err);
    EXPECT_EQ(maskF13Timings(pooled.out), maskF13Timings(serial.out));
    for (const auto &entry : std::filesystem::directory_iterator(
             scratch.dir / "1")) {
        SCOPED_TRACE(entry.path().filename().string());
        EXPECT_EQ(comparableFile(scratch.dir / "4" / entry.path().filename()),
                  comparableFile(entry.path()));
    }
}

TEST(Schedule, PooledRunRendersWhatOneWorkerRenders)
{
    expectPooledMatchesSerial("all");
}

TEST(Schedule, PooledSubsetRendersWhatOneWorkerRenders)
{
    // The tsan.Schedule lane's share of the above: machines shared
    // across experiments (memo repeats), streams shared across grids,
    // a multi-grid experiment, and derived columns.
    expectPooledMatchesSerial("T3,F1,F3,F5,F6,F10");
}

TEST(EvalMain, PutsBackEveryProcessWideHook)
{
    // A caller's own settings, which every exit path must restore.
    util::RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.backoffBaseMs = 7;
    const std::vector<std::pair<std::string, std::string>> plan = {
        {"crc", "hang"}};
    util::ChaosSpec chaos;
    chaos.seed = 9;
    chaos.rate = 0.25;
    chaos.points = "no.such.point";
    const std::vector<std::string> flags = {
        "--run", "T1", "--jobs", "3", "--retries", "0",
        "--retry-backoff-ms", "9", "--fault-inject", "copy:hang",
        "--chaos", "seed=3,rate=0.5,point=none"};
    auto bogus = flags;
    bogus.push_back("--bogus");

    for (const auto &args : {flags, bogus}) {
        sim::SweepRunner::setDefaultJobs(2);
        sim::SweepRunner::setDefaultRetryPolicy(policy);
        setFaultInjection(plan);
        util::FaultInjector::instance().arm(chaos);

        auto run = eval(args);
        EXPECT_EQ(run.rc, args.size() == flags.size() ? 0 : 2) << run.err;
        EXPECT_EQ(sim::SweepRunner::defaultJobsOverride(), 2u);
        EXPECT_EQ(sim::SweepRunner::defaultRetryPolicy().maxAttempts, 5u);
        EXPECT_EQ(sim::SweepRunner::defaultRetryPolicy().backoffBaseMs, 7u);
        EXPECT_EQ(faultInjection(), plan);
        EXPECT_TRUE(util::FaultInjector::armed());
        EXPECT_EQ(util::FaultInjector::instance().spec().toString(),
                  chaos.toString());
    }
    sim::SweepRunner::setDefaultJobs(0);
    sim::SweepRunner::setDefaultRetryPolicy(util::RetryPolicy{});
    setFaultInjection({});
    util::FaultInjector::instance().disarm();

    // And the defaults stay defaults.
    auto run = eval(flags);
    EXPECT_EQ(run.rc, 0) << run.err;
    EXPECT_EQ(sim::SweepRunner::defaultJobsOverride(), 0u);
    EXPECT_EQ(sim::SweepRunner::defaultRetryPolicy().maxAttempts,
              util::RetryPolicy{}.maxAttempts);
    EXPECT_TRUE(faultInjection().empty());
    EXPECT_FALSE(util::FaultInjector::armed());
}

} // namespace
} // namespace cpe::exp
