/**
 * @file
 * The deterministic fault-injection harness end to end: ChaosSpec
 * parsing, the glob filter, the reproducible decision stream, the
 * retry policy's classification and backoff arithmetic, and the chaos
 * invariant the whole robustness layer exists to uphold — under any
 * armed schedule, every sweep run either completes bit-identical to
 * its fault-free twin or fails with a structured error, and a
 * disarmed process is byte-identical to one that never linked the
 * injector at all.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/retry.hh"

#include "expect_error.hh"

namespace cpe {
namespace {

/** Disarm on scope exit so no test leaks a schedule into another. */
struct DisarmGuard
{
    ~DisarmGuard() { util::FaultInjector::instance().disarm(); }
};

TEST(ChaosSpec, ParseRoundTrips)
{
    auto spec =
        util::ChaosSpec::parse("seed=42,rate=0.25,point=trace_cache.*");
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.rate, 0.25);
    EXPECT_EQ(spec.points, "trace_cache.*");
    EXPECT_TRUE(spec.enabled());

    auto again = util::ChaosSpec::parse(spec.toString());
    EXPECT_EQ(again.seed, spec.seed);
    EXPECT_EQ(again.rate, spec.rate);
    EXPECT_EQ(again.points, spec.points);

    // Keys are optional and order-free; rate 0 means "off".
    auto sparse = util::ChaosSpec::parse("rate=1,seed=7");
    EXPECT_EQ(sparse.seed, 7u);
    EXPECT_EQ(sparse.rate, 1.0);
    EXPECT_EQ(sparse.points, "*");
    EXPECT_FALSE(util::ChaosSpec::parse("seed=3").enabled());
}

TEST(ChaosSpec, ParseRejectsBadInput)
{
    CPE_EXPECT_THROW_MSG(util::ChaosSpec::parse("sede=1"), ConfigError,
                         "unknown chaos key");
    CPE_EXPECT_THROW_MSG(util::ChaosSpec::parse("rate=1.5"), ConfigError,
                         "outside [0, 1]");
    CPE_EXPECT_THROW_MSG(util::ChaosSpec::parse("rate=-0.1"), ConfigError,
                         "outside [0, 1]");
    EXPECT_THROW(util::ChaosSpec::parse("seed=banana"), ConfigError);
    EXPECT_THROW(util::ChaosSpec::parse("seed"), ConfigError);
}

TEST(ChaosSpec, GlobMatch)
{
    EXPECT_TRUE(util::globMatch("*", "anything.at.all"));
    EXPECT_TRUE(util::globMatch("trace_cache.*", "trace_cache.spill_write"));
    EXPECT_FALSE(util::globMatch("trace_cache.*", "trace_sink.write"));
    EXPECT_TRUE(util::globMatch("*.write", "trace_sink.write"));
    EXPECT_TRUE(util::globMatch("*cache*write", "trace_cache.spill_write"));
    EXPECT_FALSE(util::globMatch("*cache*write", "baseline.read"));
    EXPECT_TRUE(util::globMatch("store.writ?", "store.write"));
    EXPECT_FALSE(util::globMatch("store.writ?", "store.writes"));
    EXPECT_TRUE(util::globMatch("", ""));
    EXPECT_FALSE(util::globMatch("", "x"));
}

TEST(FaultInjector, DisarmedNeverFiresAndCostsNoState)
{
    DisarmGuard guard;
    util::FaultInjector::instance().disarm();
    EXPECT_FALSE(util::FaultInjector::armed());
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(CPE_FAULT_POINT("test.disarmed"));
    // Disarmed evaluations never even reach the registry.
    EXPECT_EQ(util::FaultInjector::instance().stats().count(
                  "test.disarmed"),
              0u);
}

TEST(FaultInjector, DecisionStreamIsReproducible)
{
    DisarmGuard guard;
    auto spec = util::ChaosSpec::parse("seed=1234,rate=0.5");
    auto draw_sequence = [&] {
        util::FaultInjector::instance().arm(spec);
        std::vector<bool> draws;
        for (int i = 0; i < 64; ++i)
            draws.push_back(CPE_FAULT_POINT("test.stream"));
        return draws;
    };
    auto first = draw_sequence();
    auto second = draw_sequence();  // re-arm resets the counters
    EXPECT_EQ(first, second);

    // A rate of 0.5 over 64 draws fires somewhere strictly between
    // never and always, and a different seed permutes the stream.
    unsigned fired = 0;
    for (bool draw : first)
        fired += draw;
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, 64u);

    util::FaultInjector::instance().arm(
        util::ChaosSpec::parse("seed=1235,rate=0.5"));
    std::vector<bool> other_seed;
    for (int i = 0; i < 64; ++i)
        other_seed.push_back(CPE_FAULT_POINT("test.stream"));
    EXPECT_NE(first, other_seed);
}

TEST(FaultInjector, RateOneFiresAlwaysAndGlobFilters)
{
    DisarmGuard guard;
    util::FaultInjector::instance().arm(
        util::ChaosSpec::parse("seed=9,rate=1,point=only.this"));
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(CPE_FAULT_POINT("only.this"));
        EXPECT_FALSE(CPE_FAULT_POINT("never.that"));
    }
    auto stats = util::FaultInjector::instance().stats();
    EXPECT_EQ(stats["only.this"].evaluated, 16u);
    EXPECT_EQ(stats["only.this"].fired, 16u);
    EXPECT_EQ(stats["never.that"].evaluated, 16u);
    EXPECT_EQ(stats["never.that"].fired, 0u);

    Json report = util::FaultInjector::instance().statsJson();
    ASSERT_NE(report.find("only.this"), nullptr);
    EXPECT_EQ(report.at("only.this").at("fired").asNumber(), 16);
}

TEST(RetryPolicy, ClassifiesTransientVsDeterministic)
{
    util::RetryPolicy policy;
    EXPECT_TRUE(policy.retryable("io"));
    EXPECT_TRUE(policy.retryable("exception"));
    EXPECT_FALSE(policy.retryable("config"));
    EXPECT_FALSE(policy.retryable("workload"));
    EXPECT_FALSE(policy.retryable("progress"));
    EXPECT_FALSE(policy.retryable("error"));
}

TEST(RetryPolicy, BackoffIsDeterministicJitteredAndBounded)
{
    util::RetryPolicy policy;
    policy.backoffBaseMs = 100;
    policy.backoffFactor = 2.0;
    policy.backoffMaxMs = 350;
    policy.jitterSeed = 7;

    // Pure function of (policy, salt, attempt).
    EXPECT_EQ(policy.delayMs(2, "crc|1p8"), policy.delayMs(2, "crc|1p8"));
    // Jitter scales the exponential schedule into [base/2, base).
    unsigned first = policy.delayMs(2, "crc|1p8");
    EXPECT_GE(first, 50u);
    EXPECT_LT(first, 100u);
    unsigned second = policy.delayMs(3, "crc|1p8");
    EXPECT_GE(second, 100u);
    EXPECT_LT(second, 200u);
    // The cap bounds the raw delay before jitter.
    unsigned fifth = policy.delayMs(6, "crc|1p8");
    EXPECT_LT(fifth, 350u);
    // Different runs de-synchronize.
    bool differs = false;
    for (const char *salt : {"copy|1p8", "crc|2p8", "saxpy|1p16"})
        differs = differs || policy.delayMs(2, salt) != first;
    EXPECT_TRUE(differs);

    // Base 0 = the historical retry-immediately behavior.
    util::RetryPolicy immediate;
    EXPECT_EQ(immediate.delayMs(2, "crc|1p8"), 0u);
    // Attempt 1 is the first try, never delayed.
    EXPECT_EQ(policy.delayMs(1, "crc|1p8"), 0u);
}

sim::SimConfig
chaosConfig(const std::string &workload, bool dual)
{
    sim::SimConfig config = sim::SimConfig::defaults();
    config.workloadName = workload;
    config.core.dcache.tech =
        dual ? core::PortTechConfig::dualPortBase()
             : core::PortTechConfig::singlePortAllTechniques();
    config.label = dual ? "dual" : "techniques";
    return config;
}

/** The 2x2 acceptance grid: 2 workloads x 2 port variants. */
std::vector<sim::SimConfig>
chaosGrid()
{
    std::vector<sim::SimConfig> configs;
    for (const char *workload : {"crc", "copy"})
        for (bool dual : {false, true})
            configs.push_back(chaosConfig(workload, dual));
    return configs;
}

TEST(Chaos, InjectedSweepFaultIsRetriedThenSucceeds)
{
    VerboseScope quiet(false);
    DisarmGuard guard;
    // Find a seed whose sweep.run stream starts (fire, pass): the
    // first attempt dies with the injected IoError, the retry lands.
    std::uint64_t seed = 0;
    bool found = false;
    for (std::uint64_t candidate = 0; candidate < 512; ++candidate) {
        util::FaultInjector::instance().arm(util::ChaosSpec::parse(
            "seed=" + std::to_string(candidate) +
            ",rate=0.5,point=sweep.run"));
        bool first = CPE_FAULT_POINT("sweep.run");
        bool second = CPE_FAULT_POINT("sweep.run");
        if (first && !second) {
            seed = candidate;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no (fire, pass) seed below 512";

    // Re-arm to reset the counters, then run: attempt 1 consumes the
    // firing draw, the retry consumes the passing one.
    util::FaultInjector::instance().arm(util::ChaosSpec::parse(
        "seed=" + std::to_string(seed) + ",rate=0.5,point=sweep.run"));
    auto outcomes =
        sim::SweepRunner(1).runOutcomes({chaosConfig("crc", false)});
    util::FaultInjector::instance().disarm();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 2u);

    // Bit-identical to the fault-free run despite the mid-flight retry.
    sim::SimResult clean = sim::simulate(chaosConfig("crc", false));
    EXPECT_EQ(sim::resultToJson(outcomes[0].result).dump(),
              sim::resultToJson(clean).dump());
}

TEST(Chaos, ExhaustedRetriesSurfaceStructuredIoError)
{
    VerboseScope quiet(false);
    DisarmGuard guard;
    util::FaultInjector::instance().arm(
        util::ChaosSpec::parse("seed=1,rate=1,point=sweep.run"));
    sim::SweepRunner runner(1);
    util::RetryPolicy policy;
    policy.maxAttempts = 3;
    runner.setRetryPolicy(policy);
    auto outcomes = runner.runOutcomes({chaosConfig("crc", false)});
    util::FaultInjector::instance().disarm();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].errorKind, "io");
    EXPECT_EQ(outcomes[0].attempts, 3u);
    EXPECT_NE(outcomes[0].errorMessage.find("sweep.run"),
              std::string::npos);
}

/**
 * The chaos invariant, over the acceptance schedule matrix (20 seeds x
 * 3 rates over the 2x2 grid): every outcome either carries a result
 * bit-identical to its fault-free twin or a structured error of a
 * known kind.  Serial workers so each schedule's decision stream maps
 * to runs deterministically (see the determinism caveat in fault.hh).
 */
TEST(Chaos, SweepInvariantUnderScheduleMatrix)
{
    VerboseScope quiet(false);
    DisarmGuard guard;
    util::FaultInjector::instance().disarm();

    // Fault-free goldens, one per grid cell.
    std::map<std::string, std::string> golden;
    for (const auto &config : chaosGrid())
        golden[config.workloadName + "|" + config.tag()] =
            sim::resultToJson(sim::simulate(config)).dump();

    unsigned succeeded = 0;
    unsigned failed = 0;
    for (unsigned seed = 0; seed < 20; ++seed) {
        for (const char *rate : {"0.02", "0.1", "0.5"}) {
            util::FaultInjector::instance().arm(util::ChaosSpec::parse(
                "seed=" + std::to_string(seed) + ",rate=" +
                std::string(rate)));
            // A fresh spill-less cache per schedule keeps runs
            // independent of earlier schedules' failures.
            sim::TraceCache cache;
            auto configs = chaosGrid();
            for (auto &config : configs)
                config.traceCache = &cache;
            auto outcomes = sim::SweepRunner(1).runOutcomes(configs);
            ASSERT_EQ(outcomes.size(), 4u);
            for (const auto &outcome : outcomes) {
                std::string cell =
                    outcome.workload + "|" + outcome.configTag;
                if (outcome.ok()) {
                    ++succeeded;
                    EXPECT_EQ(sim::resultToJson(outcome.result).dump(),
                              golden[cell])
                        << "seed=" << seed << " rate=" << rate << " "
                        << cell;
                } else {
                    ++failed;
                    EXPECT_TRUE(outcome.errorKind == "io" ||
                                outcome.errorKind == "exception")
                        << outcome.errorKind << ": "
                        << outcome.errorMessage;
                    EXPECT_FALSE(outcome.errorMessage.empty());
                    EXPECT_NE(outcome.errorJson().find("kind"), nullptr);
                }
            }
        }
    }
    util::FaultInjector::instance().disarm();
    // The matrix must actually exercise both arms of the invariant.
    EXPECT_GT(succeeded, 0u);
    EXPECT_GT(failed, 0u);
}

TEST(Chaos, DisarmedSweepByteIdenticalToFaultFree)
{
    VerboseScope quiet(false);
    DisarmGuard guard;
    // Golden: a grid from a process state that never armed (as far as
    // this test can arrange — disarm is specified to leave no trace).
    util::FaultInjector::instance().disarm();
    std::string golden =
        sim::SweepRunner(1).runGrid(chaosGrid()).toJson().dump(2);

    // Arm, churn the decision stream, disarm — then the same grid must
    // come out byte-identical.
    util::FaultInjector::instance().arm(
        util::ChaosSpec::parse("seed=3,rate=1"));
    for (int i = 0; i < 32; ++i)
        (void)CPE_FAULT_POINT("trace_cache.spill_write");
    util::FaultInjector::instance().disarm();
    std::string after =
        sim::SweepRunner(1).runGrid(chaosGrid()).toJson().dump(2);
    EXPECT_EQ(golden, after);
}

/**
 * The invariant under parallel workers (the tsan.Chaos lane): which
 * run sees which draw is schedule-dependent, but every outcome must
 * still be fault-free-identical or structured.
 */
TEST(Chaos, ParallelSweepInvariantHolds)
{
    VerboseScope quiet(false);
    DisarmGuard guard;
    util::FaultInjector::instance().disarm();
    std::map<std::string, std::string> golden;
    for (const auto &config : chaosGrid())
        golden[config.workloadName + "|" + config.tag()] =
            sim::resultToJson(sim::simulate(config)).dump();

    util::FaultInjector::instance().arm(
        util::ChaosSpec::parse("seed=11,rate=0.2"));
    sim::TraceCache cache;
    auto configs = chaosGrid();
    for (auto &config : configs)
        config.traceCache = &cache;
    auto outcomes = sim::SweepRunner(4).runOutcomes(configs);
    util::FaultInjector::instance().disarm();
    ASSERT_EQ(outcomes.size(), 4u);
    for (const auto &outcome : outcomes) {
        if (outcome.ok())
            EXPECT_EQ(sim::resultToJson(outcome.result).dump(),
                      golden[outcome.workload + "|" + outcome.configTag]);
        else
            EXPECT_TRUE(outcome.errorKind == "io" ||
                        outcome.errorKind == "exception")
                << outcome.errorKind;
    }
}

/**
 * The chaos invariant extended over the result store: with the
 * store.* seams armed — entry reads and entry writes — a grid served
 * through an entry directory still comes back byte-identical to its
 * fault-free twin (a failed read is a miss that re-simulates, a failed
 * write costs only durability), and a disarmed rerun over whatever the
 * chaos matrix left in the directory matches too.
 */
TEST(Chaos, StoredGridInvariantUnderStoreFaults)
{
    VerboseScope quiet(false);
    DisarmGuard guard;
    util::FaultInjector::instance().disarm();

    std::map<std::string, std::string> golden;
    for (const auto &config : chaosGrid())
        golden[config.workloadName + "|" + config.tag()] =
            sim::resultToJson(sim::simulate(config)).dump();

    auto dir = std::filesystem::temp_directory_path() /
               ("cpe_chaos_store." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);

    // One stored sweep per schedule; each opens the directory afresh
    // so its lookups reach the disk rather than an earlier memo.
    auto stored_sweep = [&]() {
        sim::ResultStore store(dir.string());
        sim::ResultStore::setActive(&store);
        auto outcomes = sim::SweepRunner(1).runOutcomes(chaosGrid());
        sim::ResultStore::setActive(nullptr);
        unsigned checked = 0;
        for (const auto &outcome : outcomes) {
            EXPECT_TRUE(outcome.ok())
                << outcome.errorKind << ": " << outcome.errorMessage;
            if (!outcome.ok())
                continue;
            EXPECT_EQ(sim::resultToJson(outcome.result).dump(),
                      golden[outcome.workload + "|" + outcome.configTag])
                << outcome.workload << " / " << outcome.configTag;
            ++checked;
        }
        return checked;
    };

    unsigned checked = 0;
    for (unsigned seed : {7u, 8u, 9u}) {
        for (const char *points : {"store.read", "store.write", "store.*"}) {
            util::FaultInjector::instance().arm(util::ChaosSpec::parse(
                "seed=" + std::to_string(seed) + ",rate=0.5,point=" +
                std::string(points)));
            checked += stored_sweep();
        }
    }
    auto injector_stats = util::FaultInjector::instance().stats();
    util::FaultInjector::instance().disarm();

    // The matrix must have actually reached both store seams.
    EXPECT_GT(injector_stats["store.read"].fired, 0u);
    EXPECT_GT(injector_stats["store.write"].fired, 0u);
    EXPECT_EQ(checked, 9u * chaosGrid().size());

    EXPECT_EQ(stored_sweep(), chaosGrid().size());
    std::filesystem::remove_all(dir);
}

TEST(Chaos, SpillCircuitBreakerDegradesToMemoryOnly)
{
    VerboseScope quiet(false);
    DisarmGuard guard;
    auto spill_dir = std::filesystem::temp_directory_path() /
                     "cpe_chaos_breaker_test";
    std::filesystem::remove_all(spill_dir);

    // Every spill write fails: after the threshold the cache must stop
    // touching the disk and keep serving from memory.
    util::FaultInjector::instance().arm(util::ChaosSpec::parse(
        "seed=5,rate=1,point=trace_cache.spill_write"));
    sim::TraceCache cache(spill_dir.string());
    std::vector<std::string> workloads = {"crc", "copy", "histogram",
                                          "saxpy"};
    for (const auto &workload : workloads) {
        sim::SimConfig config = chaosConfig(workload, false);
        config.traceCache = &cache;
        sim::SimResult result = sim::simulate(config);
        EXPECT_GT(result.insts, 0u) << workload;
    }
    util::FaultInjector::instance().disarm();

    EXPECT_TRUE(cache.degraded());
    EXPECT_GE(cache.stats().spillFailures,
              sim::TraceCache::SpillBreakerThreshold);
    // Memory-side behavior is untouched: every workload captured once.
    EXPECT_EQ(cache.stats().captures, workloads.size());
    // Degraded means no spill files ever landed.
    unsigned spilled = 0;
    std::error_code ec;
    for (auto it = std::filesystem::directory_iterator(spill_dir, ec);
         !ec && it != std::filesystem::directory_iterator(); ++it)
        ++spilled;
    EXPECT_EQ(spilled, 0u);
    std::filesystem::remove_all(spill_dir);
}

TEST(Chaos, OrphanedSpillTmpFilesAreSweptOnConstruction)
{
    VerboseScope quiet(false);
    auto spill_dir = std::filesystem::temp_directory_path() /
                     "cpe_chaos_orphan_test";
    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
    // A crash mid-spill leaves "<trace>.cpet.tmp.<pid>" behind.
    {
        std::ofstream orphan(spill_dir / "deadbeef.cpet.tmp.1234");
        orphan << "torn";
    }
    {
        std::ofstream keeper(spill_dir / "cafef00d.cpet");
        keeper << "not a real capture, but not a tmp file either";
    }

    sim::TraceCache cache(spill_dir.string());
    EXPECT_FALSE(
        std::filesystem::exists(spill_dir / "deadbeef.cpet.tmp.1234"));
    EXPECT_TRUE(std::filesystem::exists(spill_dir / "cafef00d.cpet"));
    std::filesystem::remove_all(spill_dir);
}

} // namespace
} // namespace cpe
