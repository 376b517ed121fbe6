/**
 * @file
 * The fault-isolation layer end to end: SimConfig::validate()
 * diagnostics for every class of bad machine, the forward-progress
 * watchdog and its pipeline snapshot, SweepRunner::runOutcomes'
 * one-bad-point-never-kills-the-grid contract, and the cpe_eval
 * --validate / --keep-going surfaces.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/driver.hh"
#include "exp/experiment.hh"
#include "exp/registry.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "util/error.hh"
#include "util/logging.hh"

#include "expect_error.hh"

namespace cpe {
namespace {

/** True when validate() reports a diagnostic anchored at @p field. */
bool
flags(const sim::SimConfig &config, const std::string &field)
{
    auto diagnostics = config.validate();
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [&](const sim::ConfigDiagnostic &d) {
                           return d.field == field;
                       });
}

sim::SimConfig
goodConfig()
{
    sim::SimConfig config = sim::SimConfig::defaults();
    config.workloadName = "crc";
    return config;
}

TEST(ConfigValidate, DefaultsAreClean)
{
    EXPECT_TRUE(goodConfig().validate().empty());
}

TEST(ConfigValidate, UnknownWorkload)
{
    auto config = goodConfig();
    config.workloadName = "no-such-kernel";
    EXPECT_TRUE(flags(config, "workload"));
}

TEST(ConfigValidate, CacheGeometry)
{
    auto config = goodConfig();
    config.core.dcache.cache.assoc = 0;
    EXPECT_TRUE(flags(config, "l1d.assoc"));

    config = goodConfig();
    config.core.dcache.cache.sizeBytes = 12 * 1024;  // not a power of 2
    EXPECT_TRUE(flags(config, "l1d.size"));

    config = goodConfig();
    config.core.fetch.icache.lineBytes = 48;
    EXPECT_TRUE(flags(config, "l1i.line"));

    config = goodConfig();
    config.l2.cache.assoc = 3;  // 512K/32B/3 -> non-pow2 sets
    EXPECT_TRUE(flags(config, "l2.assoc"));
}

TEST(ConfigValidate, CoreAndPredictor)
{
    auto config = goodConfig();
    config.core.robSize = 0;
    EXPECT_TRUE(flags(config, "core.rob"));

    config = goodConfig();
    config.core.bpred.tableEntries = 1000;
    EXPECT_TRUE(flags(config, "bpred.table_entries"));

    config = goodConfig();
    config.core.fetch.fetchWidth = config.core.fetch.queueCapacity + 1;
    EXPECT_TRUE(flags(config, "core.fetch_width"));

    config = goodConfig();
    config.core.bpred.btbAssoc = 3;  // does not divide 512
    EXPECT_TRUE(flags(config, "bpred.btb_assoc"));

    config = goodConfig();
    config.core.bpred.localHistories = 1000;
    EXPECT_TRUE(flags(config, "bpred.local_histories"));
}

TEST(ConfigValidate, PortSubsystem)
{
    auto config = goodConfig();
    config.core.dcache.tech.ports = 0;
    EXPECT_TRUE(flags(config, "tech.ports"));

    config = goodConfig();
    config.core.dcache.tech.banks = 3;
    EXPECT_TRUE(flags(config, "tech.banks"));

    config = goodConfig();
    config.core.dcache.tech.portWidthBytes = 4;
    EXPECT_TRUE(flags(config, "tech.width"));

    config = goodConfig();
    config.core.dcache.tech.storeBufferEntries = 300;
    EXPECT_TRUE(flags(config, "tech.store_buffer"));

    config = goodConfig();
    config.core.dcache.mshrs = 0;
    EXPECT_TRUE(flags(config, "l1d.mshrs"));

    // The D-cache unit requires a power-of-two interleave even when
    // the array is unbanked.
    config = goodConfig();
    config.core.dcache.tech.bankInterleaveBytes = 12;
    EXPECT_TRUE(flags(config, "tech.bank_interleave"));
}

TEST(ConfigValidate, RunLengthAndWatchdog)
{
    auto config = goodConfig();
    config.warmupInsts = 600'000'000;
    EXPECT_TRUE(flags(config, "warmup_insts"));

    config = goodConfig();
    config.core.maxCycles = 0;
    EXPECT_TRUE(flags(config, "core.max_cycles"));

    config = goodConfig();
    config.core.noCommitCycleLimit = config.core.maxCycles + 1;
    EXPECT_TRUE(flags(config, "core.no_commit_limit"));
}

TEST(ConfigValidate, OrThrowReportsEveryDiagnosticAtOnce)
{
    auto config = goodConfig();
    config.core.dcache.cache.assoc = 0;
    config.core.dcache.tech.banks = 3;
    try {
        config.validateOrThrow();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &error) {
        EXPECT_EQ(error.kind(), "config");
        std::string what = error.what();
        EXPECT_NE(what.find("l1d.assoc"), std::string::npos) << what;
        EXPECT_NE(what.find("tech.banks"), std::string::npos) << what;
    }
}

TEST(ConfigValidate, SimulateRejectsBadConfigBeforeBuilding)
{
    auto config = goodConfig();
    config.core.dcache.cache.assoc = 0;
    CPE_EXPECT_THROW_MSG(sim::simulate(config), ConfigError,
                         "l1d.assoc");
}

TEST(ConfigValidate, WatchdogAppearsInDescribe)
{
    EXPECT_NE(goodConfig().describe().find("watchdog"),
              std::string::npos);
}

TEST(Watchdog, NoCommitLimitTripsWithSnapshot)
{
    auto config = goodConfig();
    config.core.noCommitCycleLimit = 2;  // trips during pipeline fill
    try {
        sim::simulate(config);
        FAIL() << "expected ProgressError";
    } catch (const ProgressError &error) {
        EXPECT_EQ(error.kind(), "progress");
        const Json &snapshot = error.snapshot();
        ASSERT_FALSE(snapshot.isNull());
        // The snapshot must name every structure a wedge could be
        // stuck behind.
        for (const char *key : {"rob", "issue_queue", "lsq",
                                "store_buffer", "mshrs", "fetch"})
            EXPECT_NE(snapshot.find(key), nullptr) << key;
        EXPECT_EQ(snapshot.at("committed_insts", "snap").asNumber(), 0);
        // A plain run is in its measurement region from cycle 0.
        EXPECT_EQ(snapshot.at("phase", "snap").asString(), "measure");
        EXPECT_NE(std::string(error.what()).find("pipeline snapshot"),
                  std::string::npos);
    }
}

TEST(Watchdog, SampledMeasureLegCarriesPhaseInSnapshot)
{
    // A wedge inside a sampled run's DetailedMeasure leg: the sampled
    // schedule fast-forwards, drops straight into measurement (no
    // warm-up leg), and the watchdog trips there — the snapshot must
    // say which phase died.
    auto config = goodConfig();
    config.sample.mode = sim::SampleParams::Mode::Periodic;
    config.sample.warmupInsts = 0;
    config.core.noCommitCycleLimit = 2;
    try {
        sim::simulate(config);
        FAIL() << "expected ProgressError";
    } catch (const ProgressError &error) {
        const Json &snapshot = error.snapshot();
        ASSERT_FALSE(snapshot.isNull());
        ASSERT_NE(snapshot.find("phase"), nullptr);
        EXPECT_EQ(snapshot.at("phase", "snap").asString(), "measure");
    }
}

TEST(Watchdog, AbsoluteCycleBudgetTrips)
{
    auto config = goodConfig();
    config.core.maxCycles = 100;
    config.core.noCommitCycleLimit = 0;  // isolate the budget check
    CPE_EXPECT_THROW_MSG(sim::simulate(config), ProgressError,
                         "cycle budget");
}

TEST(SweepOutcomes, OneBadPointNeverKillsTheGrid)
{
    VerboseScope quiet(false);
    std::vector<sim::SimConfig> configs;
    for (const char *workload : {"crc", "saxpy", "strops"}) {
        auto config = goodConfig();
        config.workloadName = workload;
        configs.push_back(config);
    }
    configs[1].core.dcache.cache.assoc = 0;  // deterministic failure

    auto outcomes = sim::SweepRunner(2).runOutcomes(configs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[2].ok());
    EXPECT_GT(outcomes[0].result.insts, 0u);

    const auto &failed = outcomes[1];
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.workload, "saxpy");
    EXPECT_EQ(failed.errorKind, "config");
    // Config failures are deterministic: no retry.
    EXPECT_EQ(failed.attempts, 1u);
    EXPECT_GE(failed.wallMs, 0.0);
    ASSERT_TRUE(failed.exception != nullptr);

    Json record = failed.errorJson();
    for (const char *key : {"workload", "config", "kind", "message",
                            "attempts", "wall_ms"})
        EXPECT_NE(record.find(key), nullptr) << key;
    EXPECT_EQ(record.find("snapshot"), nullptr)
        << "config errors carry no pipeline snapshot";
}

TEST(SweepOutcomes, ProgressFailureCarriesSnapshot)
{
    VerboseScope quiet(false);
    auto config = goodConfig();
    config.core.noCommitCycleLimit = 2;
    auto outcomes = sim::SweepRunner(1).runOutcomes({config});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].errorKind, "progress");
    EXPECT_NE(outcomes[0].errorJson().find("snapshot"), nullptr);
}

/** Run evalMain over an argv literal list. */
int
evalWith(std::vector<std::string> args)
{
    args.insert(args.begin(), "cpe_eval");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    return exp::evalMain(static_cast<int>(argv.size()), argv.data());
}

TEST(EvalValidate, CleanExperimentPasses)
{
    EXPECT_EQ(evalWith({"--validate", "--run", "T3", "--workloads",
                        "crc"}),
              0);
}

TEST(EvalValidate, InjectedConfigFaultFailsWithoutRunning)
{
    // --validate FAIL is a configuration error: exit code 2.
    EXPECT_EQ(evalWith({"--validate", "--run", "T3", "--workloads",
                        "crc", "--fault-inject", "crc:config"}),
              2);
}

TEST(EvalKeepGoing, InvalidRunBecomesStructuredFailure)
{
    // The injected config fault fails validate() inside the sweep;
    // keep-going turns it into an "errors" record and exit 1 instead
    // of an uncaught ConfigError.
    EXPECT_EQ(evalWith({"--run", "T3", "--workloads", "crc",
                        "--keep-going", "--format", "json",
                        "--fault-inject", "crc:config"}),
              1);
}

TEST(EvalKeepGoing, HealthySiblingIsBitIdenticalToStandalone)
{
    // A hang-faulted run beside a healthy one, keep-going, serial
    // workers: the failure must leave zero residue in the sibling —
    // not a frozen stat, not a counter, not a byte.
    VerboseScope quiet(false);
    auto healthy = goodConfig();
    auto hung = goodConfig();
    hung.workloadName = "copy";
    hung.core.noCommitCycleLimit = 2;

    sim::SimResult standalone = sim::simulate(healthy);
    auto outcomes =
        sim::SweepRunner(1).runOutcomes({hung, healthy});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].errorKind, "progress");
    EXPECT_NE(outcomes[0].errorJson().find("snapshot"), nullptr);
    ASSERT_TRUE(outcomes[1].ok());
    EXPECT_EQ(sim::resultToJson(outcomes[1].result).dump(),
              sim::resultToJson(standalone).dump());
}

// The documented exit-code contract (kUsage, docs/robustness.md):
// 0 success, 1 run failures, 2 config/usage errors, 3 baseline drift.

TEST(EvalExitCodes, SuccessIsZero)
{
    EXPECT_EQ(evalWith({"--validate", "--run", "T3", "--workloads",
                        "crc"}),
              0);
}

TEST(EvalExitCodes, KeepGoingRunFailureIsOne)
{
    EXPECT_EQ(evalWith({"--run", "T3", "--workloads", "crc",
                        "--keep-going", "--format", "json",
                        "--fault-inject", "crc:hang"}),
              1);
}

TEST(EvalExitCodes, UnknownFaultKindIsConfigErrorTwo)
{
    // Satellite contract: a typo'd --fault-inject KIND is rejected
    // with a structured ConfigError naming the valid kinds, before
    // anything runs.
    EXPECT_EQ(evalWith({"--validate", "--run", "T3", "--workloads",
                        "crc", "--fault-inject", "crc:bogus"}),
              2);
}

TEST(EvalExitCodes, UnknownChaosKeyIsConfigErrorTwo)
{
    EXPECT_EQ(evalWith({"--validate", "--run", "T3", "--workloads",
                        "crc", "--chaos", "sede=1"}),
              2);
}

TEST(EvalExitCodes, JunkNumericFlagIsUsageErrorTwo)
{
    // Every numeric flag goes through one strict parser: junk, a sign,
    // or trailing characters is a usage error, never a silent 0 (a
    // "--tolerance abc" gate that passes within 0.00%, a "--jobs abc"
    // that quietly means every core).
    const std::vector<std::vector<std::string>> junk = {
        {"--tolerance", "abc"},        {"--tolerance", "-1"},
        {"--jobs", "abc"},             {"--jobs", "4x"},
        {"--retries", "abc"},          {"--retries", "-1"},
        {"--retry-backoff-ms", "abc"}, {"--sample-cycles", "abc"},
        {"--sample-insts", "1e3"},     {"--sample-warmup", "abc"},
        {"--sample-period", ""},       {"--sample-intervals", "abc"},
        {"--sample-confidence", "abc"}, {"--trace-cache-mb", "abc"},
        {"--profile=abc"},
    };
    for (const auto &flag : junk) {
        std::vector<std::string> args = {"--validate", "--run", "T3",
                                         "--workloads", "crc"};
        args.insert(args.end(), flag.begin(), flag.end());
        testing::internal::CaptureStderr();
        int rc = evalWith(args);
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(rc, 2) << flag.front();
        EXPECT_NE(err.find("wants a non-negative number"),
                  std::string::npos)
            << flag.front() << ": " << err;
    }
}

TEST(EvalExitCodes, BaselineDriftIsThree)
{
    // A doctored baseline whose geomeans can't possibly match: the
    // gate must report drift with its own exit code, distinct from
    // run failures and usage errors.
    VerboseScope quiet(false);
    auto dir = std::filesystem::temp_directory_path() /
               "cpe_drift_baseline_test";
    std::filesystem::create_directories(dir);
    const exp::Experiment &t3 =
        exp::ExperimentRegistry::instance().get("T3");
    Json geomeans = Json::object();
    Json ipc = Json::object();
    for (const auto &variant : t3.variants())
        geomeans[variant.label] = 999.0;
    Json workloads = Json::array();
    workloads.push("crc");
    Json doc = Json::object();
    doc["experiment"] = "T3";
    doc["schema"] = 1;
    doc["workloads"] = std::move(workloads);
    doc["geomean_ipc"] = std::move(geomeans);
    doc["ipc"] = std::move(ipc);
    {
        std::ofstream out(dir / "T3.json");
        out << doc.dump(2) << "\n";
    }
    EXPECT_EQ(evalWith({"--check", "--run", "T3", "--baseline",
                        dir.string()}),
              3);
    std::filesystem::remove_all(dir);
}

TEST(EvalExitCodes, TraceAcrossASampledExperimentIsZero)
{
    // F13's sampled column samples by design: the global --trace and
    // --sample-cycles hooks skip it instead of failing validation.
    VerboseScope quiet(false);
    ::setenv("CPESIM_F13_SCALE", "1", 1);
    int rc = evalWith({"--run", "F5,F13", "--workloads", "copy",
                       "--trace", "/dev/null", "--sample-cycles", "1000",
                       "--format", "json"});
    ::unsetenv("CPESIM_F13_SCALE");
    EXPECT_EQ(rc, 0);
}

TEST(EvalExitCodes, TraceWithGlobalSampleModeIsConfigErrorTwo)
{
    // A user's own --sample-mode still refuses --trace.
    EXPECT_EQ(evalWith({"--validate", "--run", "T3", "--workloads", "crc",
                        "--trace", "/dev/null", "--sample-mode",
                        "periodic"}),
              2);
}

TEST(ObsHooks, SampledVariantsRunWithoutTraceOrIntervalSampling)
{
    VerboseScope quiet(false);
    const auto variants =
        exp::ExperimentRegistry::instance().get("F13").variants();
    auto plain = exp::suiteConfigs(variants, {"copy"});
    obs::CountingTraceSink sink;
    exp::setObservability(&sink, 1000);
    auto hooked = exp::suiteConfigs(variants, {"copy"});
    exp::setObservability(nullptr, 0);
    ASSERT_EQ(hooked.size(), 2u);
    ASSERT_FALSE(hooked[0].sample.enabled());
    ASSERT_TRUE(hooked[1].sample.enabled());
    EXPECT_EQ(hooked[0].obs.traceSink, &sink);
    EXPECT_EQ(hooked[0].obs.sampleCycles, 1000u);
    EXPECT_EQ(hooked[1].obs.traceSink, nullptr);
    EXPECT_EQ(hooked[1].obs.sampleCycles, 0u);

    for (auto *configs : {&plain, &hooked})
        for (auto &config : *configs)
            config.workload.scale = 1;
    // The full-detail run carries the 1000-cycle timeseries and trace;
    // the sampled run is exactly the one it would be without hooks
    // (its per-interval timeseries included).
    EXPECT_TRUE(sim::simulate(plain[0]).timeseriesJson.empty());
    EXPECT_FALSE(sim::simulate(hooked[0]).timeseriesJson.empty());
    EXPECT_GT(sink.bytes(), 0u);
    EXPECT_EQ(sim::resultToJson(sim::simulate(hooked[1])).dump(),
              sim::resultToJson(sim::simulate(plain[1])).dump());
}

} // namespace
} // namespace cpe
