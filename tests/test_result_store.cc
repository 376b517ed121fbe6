/**
 * @file
 * sim::ResultStore, the one result memo: byte-exact round trips in
 * memory and on disk, key sensitivity (every machine knob and version,
 * never the display label or the formatting of a hand-written machine
 * file), corrupt-entry fallback without poisoning the store,
 * chaos-injected store I/O failures, single-flight dedup under
 * concurrent identical requests and parallel sweeps, kill-and-resume
 * stitching through an entry directory, cpe_eval's memo (byte-identical
 * documents, one simulation per distinct machine, traced runs bypassing
 * it), and the simulator-version guard and summary.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/driver.hh"
#include "exp/experiment.hh"
#include "exp/registry.hh"
#include "sim/config.hh"
#include "sim/config_file.hh"
#include "sim/report.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace cpe {
namespace {

/** A scratch directory, removed on scope exit. */
struct ScratchDir
{
    std::filesystem::path dir;

    explicit ScratchDir(const std::string &name)
        : dir(std::filesystem::temp_directory_path() /
              (name + "." + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string str() const { return dir.string(); }
};

/** Installs @p store for one scope. */
struct ActiveScope
{
    explicit ActiveScope(sim::ResultStore *store)
    {
        sim::ResultStore::setActive(store);
    }
    ~ActiveScope() { sim::ResultStore::setActive(nullptr); }
};

sim::SimConfig
storeConfig(const std::string &workload, bool dual = false)
{
    sim::SimConfig config = sim::SimConfig::defaults();
    config.workloadName = workload;
    config.core.dcache.tech =
        dual ? core::PortTechConfig::dualPortBase()
             : core::PortTechConfig::singlePortAllTechniques();
    config.label = dual ? "dual" : "techniques";
    return config;
}

std::string
keyOf(const sim::SimConfig &config)
{
    return sim::ResultStore::keyFor(config);
}

/** A fully hand-made result: store tests need bytes, not physics. */
sim::SimResult
fakeResult(const std::string &workload, double ipc)
{
    sim::SimResult result;
    result.workload = workload;
    result.configTag = "fake";
    result.cycles = 1234;
    result.insts = 5678;
    result.ipc = ipc;
    result.statsDump = "stats text\nwith lines\n";
    result.statsJson = "{\"fake\":true}";
    return result;
}

std::string
dumpOf(const sim::SimResult &result)
{
    return sim::resultToJson(result).dump();
}

TEST(ResultStore, ResultJsonRoundTripsByteExactly)
{
    sim::SimResult result = sim::simulate(storeConfig("crc"));
    Json doc = sim::resultToJson(result);
    sim::SimResult back =
        sim::resultFromJson(Json::parse(doc.dump(), "round trip"));
    // The serialization uses shortest-round-trip doubles, so one more
    // trip through JSON must reproduce the exact same bytes.
    EXPECT_EQ(sim::resultToJson(back).dump(), doc.dump());
    EXPECT_EQ(back.workload, result.workload);
    EXPECT_EQ(back.configTag, result.configTag);
    EXPECT_EQ(back.cycles, result.cycles);
    EXPECT_EQ(back.ipc, result.ipc);
    EXPECT_EQ(back.statsJson, result.statsJson);
    EXPECT_EQ(back.statsDump, result.statsDump);
}

TEST(ResultStore, HitMissInsertRoundTripIsByteExact)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_roundtrip");
    sim::ResultStore store(scratch.str());

    sim::SimConfig config = storeConfig("crc");
    std::string key = keyOf(config);

    sim::SimResult loaded;
    EXPECT_FALSE(store.lookup(key, loaded)) << "cold store is a miss";
    EXPECT_EQ(store.entries(), 0u);

    sim::SimResult result = sim::simulate(config);
    store.insert(key, result);
    EXPECT_EQ(store.entries(), 1u);

    ASSERT_TRUE(store.lookup(key, loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(result));

    sim::ResultStore::Stats stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
}

TEST(ResultStore, EntrySurvivesReopen)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_reopen");
    sim::SimResult result = fakeResult("crc", 1.25);
    std::string key = keyOf(storeConfig("crc"));
    {
        sim::ResultStore store(scratch.str());
        store.insert(key, result);
    }
    sim::ResultStore reopened(scratch.str());
    EXPECT_EQ(reopened.entries(), 1u);
    sim::SimResult loaded;
    ASSERT_TRUE(reopened.lookup(key, loaded));
    EXPECT_EQ(dumpOf(loaded), dumpOf(result));
    EXPECT_EQ(reopened.stats().diskHits, 1u);
}

TEST(ResultStore, KeyTracksContentNotFormatting)
{
    sim::SimConfig config = storeConfig("crc");
    std::string key = keyOf(config);
    EXPECT_EQ(key, keyOf(config)) << "stable";

    // Workload options all perturb the key...
    sim::SimConfig scaled = storeConfig("crc");
    scaled.workload.scale = 2;
    EXPECT_NE(keyOf(scaled), key);

    sim::SimConfig reseeded = storeConfig("crc");
    reseeded.workload.seed = 7;
    EXPECT_NE(keyOf(reseeded), key);

    EXPECT_NE(keyOf(storeConfig("copy")), key);

    // ...as do timing knobs — including the fetch queue and the
    // functional-unit counts F7 scales — and the store version...
    sim::SimConfig timing = storeConfig("crc");
    timing.core.dcache.tech.storeBufferEntries += 1;
    EXPECT_NE(keyOf(timing), key);
    sim::SimConfig queue = storeConfig("crc");
    queue.core.fetch.queueCapacity = 32;
    EXPECT_NE(keyOf(queue), key);
    sim::SimConfig alus = storeConfig("crc");
    alus.core.fu.intAlu.count = 4;
    EXPECT_NE(keyOf(alus), key);
    EXPECT_NE(sim::ResultStore::keyFor(config, "store-999"), key);

    // ...but not the label, which names a grid column, not a machine.
    sim::SimConfig relabelled = storeConfig("crc");
    relabelled.label = "some other column";
    EXPECT_EQ(keyOf(relabelled), key);

    // A disarmed chaos spec must not perturb the key (it is not
    // serialized); arming it must.
    sim::SimConfig with_chaos = storeConfig("crc");
    EXPECT_EQ(sim::toMachineFile(with_chaos).find("[chaos]"),
              std::string::npos);
    with_chaos.chaos = util::ChaosSpec::parse("seed=1,rate=0.5");
    EXPECT_NE(keyOf(with_chaos), key);

    // A machine file scruffed up without changing its meaning —
    // comments, blank lines, trailing whitespace — parses to the same
    // key.
    std::string pristine = sim::toMachineFile(config);
    std::string scruffy = "# hand-edited copy\n\n";
    for (char c : pristine) {
        scruffy += c;
        if (c == '\n')
            scruffy += " \t\n";
    }
    sim::ConfigParseResult reparsed = sim::parseConfig(scruffy);
    ASSERT_TRUE(reparsed.ok) << reparsed.error;
    EXPECT_EQ(keyOf(reparsed.config), key);
}

TEST(ResultStore, KeyRefusesCacheFieldsTheMachineTextOmits)
{
    // Two machines differing only in a field toMachineFile() leaves
    // out would share a key, and one would be served the other's
    // result; keyFor() refuses them instead.
    sim::SimConfig iline = storeConfig("crc");
    iline.core.fetch.icache.lineBytes = 64;
    EXPECT_DEATH(keyOf(iline), "does not carry");

    sim::SimConfig l2_repl = storeConfig("crc");
    l2_repl.l2.cache.repl = mem::ReplPolicy::Random;
    EXPECT_DEATH(keyOf(l2_repl), "does not carry");

    sim::SimConfig l1d_seed = storeConfig("crc");
    l1d_seed.core.dcache.cache.replSeed = 9;
    EXPECT_DEATH(keyOf(l1d_seed), "does not carry");

    // The L1D line size is carried, so it keys normally.
    sim::SimConfig dline = storeConfig("crc");
    dline.core.dcache.cache.lineBytes = 64;
    EXPECT_NE(keyOf(dline), keyOf(storeConfig("crc")));
}

TEST(ResultStore, ReorderedEquivalentMachineTextHitsSameKey)
{
    // Two hand-written descriptions of one machine: reordered
    // sections, comments, and loose whitespace.  Both parse to one
    // config, so they share a single entry.
    const std::string plain = "workload = crc\n"
                              "[core]\n"
                              "issue_width = 8\n"
                              "[tech]\n"
                              "ports = 1\n"
                              "store_buffer = 8\n";
    const std::string reordered = "# same machine, different prose\n"
                                  "workload = crc\n"
                                  "\n"
                                  "[tech]\n"
                                  "store_buffer   =   8\n"
                                  "ports = 1\n"
                                  "\n"
                                  "# the core section, later this time\n"
                                  "[core]\n"
                                  "issue_width = 8\n";
    auto key = [](const std::string &text) {
        sim::ConfigParseResult parsed = sim::parseConfig(text);
        EXPECT_TRUE(parsed.ok) << parsed.error;
        return keyOf(parsed.config);
    };
    EXPECT_NE(plain, reordered);
    EXPECT_EQ(key(plain), key(reordered));

    // And a genuinely different machine must not collide.
    EXPECT_NE(key(plain + "line_buffers = 2\n"), key(plain));
}

TEST(ResultStore, CorruptEntryFallsBackWithoutPoisoningTheStore)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_corrupt");
    sim::SimResult result = fakeResult("crc", 1.5);
    std::string key = keyOf(storeConfig("crc"));
    std::string path;
    {
        sim::ResultStore store(scratch.str());
        store.insert(key, result);
        path = store.entryPath(key);
    }

    // Truncate the entry mid-JSON, the way a torn write would (the
    // tmp+fsync+rename discipline makes this impossible for our own
    // writes, but a store directory is user-editable).
    {
        std::ofstream torn(path, std::ios::binary | std::ios::trunc);
        torn << "{\"t\":\"entry\",\"k\":\"" << key << "\",\"vers";
    }
    sim::ResultStore store(scratch.str());
    sim::SimResult loaded;
    EXPECT_FALSE(store.lookup(key, loaded)) << "corrupt entry is a miss";
    EXPECT_GE(store.stats().corrupt, 1u);

    // The store is not poisoned: a fresh insert overwrites the corpse
    // and the next process's lookup hits.
    store.insert(key, result);
    {
        sim::ResultStore reopened(scratch.str());
        ASSERT_TRUE(reopened.lookup(key, loaded));
        EXPECT_EQ(dumpOf(loaded), dumpOf(result));
    }

    // A wrong-version entry is equally a miss.
    {
        std::ofstream stale(path, std::ios::binary | std::ios::trunc);
        stale << "{\"t\":\"entry\",\"k\":\"" << key
              << "\",\"version\":\"store-0\",\"result\":{}}\n";
    }
    sim::ResultStore reopened(scratch.str());
    EXPECT_FALSE(reopened.lookup(key, loaded));
}

TEST(ResultStore, FetchOrComputeReportsItsSource)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_source");
    sim::ResultStore store(scratch.str());
    std::string key = keyOf(storeConfig("crc"));

    std::string source;
    sim::SimResult first = store.fetchOrCompute(
        key, []() { return fakeResult("crc", 2.0); }, &source);
    EXPECT_EQ(source, "sim");
    EXPECT_EQ(store.stats().computes, 1u);
    EXPECT_EQ(store.entries(), 1u);

    auto must_not_run = []() -> sim::SimResult {
        throw WorkloadError("must not recompute a stored result");
    };
    sim::SimResult second = store.fetchOrCompute(key, must_not_run, &source);
    EXPECT_EQ(source, "store");
    EXPECT_EQ(dumpOf(second), dumpOf(first));
    EXPECT_EQ(store.stats().computes, 1u);

    // A later process finds it on disk.
    sim::ResultStore reopened(scratch.str());
    sim::SimResult third =
        reopened.fetchOrCompute(key, must_not_run, &source);
    EXPECT_EQ(source, "store");
    EXPECT_EQ(dumpOf(third), dumpOf(first));
}

TEST(ResultStore, SingleFlightDedupExecutesExactlyOnce)
{
    VerboseScope quiet(false);
    sim::ResultStore store;
    std::string key = keyOf(storeConfig("crc"));

    constexpr unsigned kCallers = 8;
    std::atomic<unsigned> executions{0};
    auto compute = [&executions]() {
        ++executions;
        // Hold the flight open long enough that every caller joins it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return fakeResult("crc", 3.0);
    };

    std::vector<std::thread> callers;
    std::vector<std::string> dumps(kCallers);
    std::vector<std::string> sources(kCallers);
    for (unsigned i = 0; i < kCallers; ++i)
        callers.emplace_back([&, i]() {
            dumps[i] = dumpOf(store.fetchOrCompute(key, compute, &sources[i]));
        });
    for (auto &thread : callers)
        thread.join();

    EXPECT_EQ(executions.load(), 1u)
        << "N concurrent identical requests must simulate once";
    for (unsigned i = 1; i < kCallers; ++i)
        EXPECT_EQ(dumps[i], dumps[0]);
    unsigned sim = 0;
    for (const auto &source : sources)
        sim += source == "sim" ? 1 : 0;
    EXPECT_EQ(sim, 1u) << "exactly one leader";
    EXPECT_EQ(store.stats().fetches, kCallers);
    EXPECT_EQ(store.stats().computes, 1u);
}

TEST(ResultStore, ComputeFailurePropagatesAndIsNotMemoized)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_failure");
    sim::ResultStore store(scratch.str());
    std::string key = keyOf(storeConfig("crc"));

    EXPECT_THROW(store.fetchOrCompute(key,
                                      []() -> sim::SimResult {
                                          throw WorkloadError("boom");
                                      }),
                 WorkloadError);
    EXPECT_EQ(store.entries(), 0u) << "failures are never stored";

    // The flight is gone: a later request retries and can succeed.
    std::string source;
    sim::SimResult result = store.fetchOrCompute(
        key, []() { return fakeResult("crc", 4.0); }, &source);
    EXPECT_EQ(source, "sim");
    EXPECT_EQ(result.ipc, 4.0);
    EXPECT_EQ(store.entries(), 1u);
}

TEST(ResultStore, InsertFailureIsSurvivable)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_insertfail");
    sim::ResultStore store(scratch.str());
    std::string key = keyOf(storeConfig("crc"));

    util::FaultInjector::instance().arm(
        util::ChaosSpec::parse("seed=1,rate=1,point=store.write"));
    std::string source;
    sim::SimResult result = store.fetchOrCompute(
        key, []() { return fakeResult("crc", 5.0); }, &source);
    util::FaultInjector::instance().disarm();

    // Losing durability for the entry costs a later re-simulation,
    // never this result — and this process still reuses it.
    EXPECT_EQ(source, "sim");
    EXPECT_EQ(result.ipc, 5.0);
    EXPECT_EQ(store.entries(), 0u);
    EXPECT_GE(store.stats().insertFailures, 1u);
    sim::SimResult again;
    EXPECT_TRUE(store.lookup(key, again));
}

TEST(ResultStore, ReadFaultFallsBackToRecomputation)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_readfault");
    std::string key = keyOf(storeConfig("crc"));
    {
        sim::ResultStore store(scratch.str());
        store.insert(key, fakeResult("crc", 6.0));
    }

    sim::ResultStore store(scratch.str());
    util::FaultInjector::instance().arm(
        util::ChaosSpec::parse("seed=1,rate=1,point=store.read"));
    std::string source;
    sim::SimResult result = store.fetchOrCompute(
        key, []() { return fakeResult("crc", 6.0); }, &source);
    util::FaultInjector::instance().disarm();

    EXPECT_EQ(source, "sim") << "an unreadable entry re-executes";
    EXPECT_EQ(result.ipc, 6.0);
}

TEST(ResultStore, ClearRemovesEverything)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_result_store_clear");
    sim::ResultStore store(scratch.str());
    store.insert(keyOf(storeConfig("crc")), fakeResult("crc", 1.0));
    store.insert(keyOf(storeConfig("copy")), fakeResult("copy", 2.0));
    EXPECT_EQ(store.entries(), 2u);
    store.clear();
    EXPECT_EQ(store.entries(), 0u);
    sim::SimResult loaded;
    EXPECT_FALSE(store.lookup(keyOf(storeConfig("crc")), loaded));
}

TEST(ResultStore, UncreatableDirectoryIsStructuredIoError)
{
    EXPECT_THROW(sim::ResultStore("/dev/null/store"), IoError);
}

TEST(ResultStore, KillAndResumeStitchesByteIdenticalGrid)
{
    VerboseScope quiet(false);
    // Golden: the uninterrupted 2x2 grid, no store anywhere near it.
    std::vector<sim::SimConfig> configs;
    for (const char *workload : {"crc", "copy"})
        for (bool dual : {false, true})
            configs.push_back(storeConfig(workload, dual));
    std::string golden =
        sim::SweepRunner(1).runGrid(configs).toJson().dump(2);

    // "Crash" after K=2 of N=4 runs: only the first two reached the
    // store; the killed writer left a tmp file and a torn entry.
    ScratchDir scratch("cpe_result_store_kill");
    {
        sim::ResultStore store(scratch.str());
        for (std::size_t i = 0; i < 2; ++i)
            store.insert(keyOf(configs[i]), sim::simulate(configs[i]));
        std::ofstream(store.entryPath(keyOf(configs[2])))
            << "{\"t\":\"entry\",\"k\":\"";
        std::ofstream(store.entryPath("0123") + ".tmp.99") << "torn";
    }

    // Resume: the stored pair comes back without simulating, the other
    // pair runs, and the stitched grid matches the golden byte for
    // byte.
    sim::ResultStore store(scratch.str());
    EXPECT_FALSE(std::filesystem::exists(store.entryPath("0123") +
                                         ".tmp.99"))
        << "orphaned tmp files are swept on open";
    std::vector<sim::RunOutcome> outcomes;
    {
        ActiveScope installed(&store);
        outcomes = sim::SweepRunner(1).runOutcomes(configs);
    }
    ASSERT_EQ(outcomes.size(), 4u);
    unsigned simulated = 0;
    sim::ResultGrid grid("IPC");
    for (const auto &outcome : outcomes) {
        ASSERT_TRUE(outcome.ok());
        simulated += outcome.attempts > 0;
        grid.add(outcome.result);
    }
    EXPECT_EQ(simulated, 2u) << "exactly N-K simulations";
    EXPECT_EQ(grid.toJson().dump(2), golden);

    // The fresh runs were stored in turn: a second resume simulates
    // nothing.
    EXPECT_EQ(store.entries(), 4u);
    sim::ResultStore again(scratch.str());
    ActiveScope installed(&again);
    for (const auto &outcome : sim::SweepRunner(1).runOutcomes(configs))
        EXPECT_EQ(outcome.attempts, 0u);
}

TEST(ResultStore, ParallelDuplicateSweepSimulatesEachMachineOnce)
{
    VerboseScope quiet(false);
    // Four distinct machines, each requested under three labels and
    // interleaved, so parallel workers race for the same keys.
    std::vector<sim::SimConfig> configs;
    for (const char *label : {"a", "b", "c"})
        for (const char *workload : {"crc", "copy"})
            for (bool dual : {false, true}) {
                configs.push_back(storeConfig(workload, dual));
                configs.back().label =
                    std::string(label) + (dual ? "-dual" : "-techniques");
            }
    // One plain simulation per distinct machine, tag blanked.
    auto untagged = [](sim::SimResult result) {
        result.configTag.clear();
        return dumpOf(result);
    };
    std::map<std::string, std::string> reference;
    for (const auto &config : configs)
        if (!reference.count(keyOf(config)))
            reference[keyOf(config)] = untagged(sim::simulate(config));

    sim::ResultStore store;
    std::vector<sim::RunOutcome> outcomes;
    {
        ActiveScope installed(&store);
        outcomes = sim::SweepRunner(4).runOutcomes(configs);
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok());
        EXPECT_EQ(outcomes[i].result.configTag, configs[i].label)
            << "a reused result carries the requesting label";
        EXPECT_EQ(untagged(outcomes[i].result), reference[keyOf(configs[i])])
            << configs[i].label;
    }
    EXPECT_EQ(store.stats().fetches, configs.size());
    EXPECT_EQ(store.stats().computes, 4u);
}

// ---------------------------------------------------------------------
// The memo cpe_eval installs.

/** Run evalMain over @p args; @return (exit code, captured stderr). */
std::pair<int, std::string>
evalCapturing(std::vector<std::string> args)
{
    args.insert(args.begin(), "cpe_eval");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    int rc = exp::evalMain(static_cast<int>(argv.size()), argv.data());
    std::string err = testing::internal::GetCapturedStderr();
    testing::internal::GetCapturedStdout();
    return {rc, err};
}

/** @p id's results document from @p dir, minus the grids' replay
 *  accounting (which a memo hit legitimately changes). */
std::string
docWithoutReplay(const std::filesystem::path &dir, const std::string &id)
{
    std::ifstream in(dir / (id + ".json"));
    std::stringstream text;
    text << in.rdbuf();
    Json doc = Json::parse(text.str(), id);
    Json grids = Json::object();
    for (const auto &[key, grid] : doc.at("grids").members()) {
        Json kept = Json::object();
        for (const auto &[member, value] : grid.members())
            if (member != "replay")
                kept[member] = value;
        grids[key] = std::move(kept);
    }
    doc["grids"] = std::move(grids);
    return doc.dump(2);
}

/** Run records across every grid of @p id's document in @p dir. */
std::size_t
runRecords(const std::filesystem::path &dir, const std::string &id)
{
    std::ifstream in(dir / (id + ".json"));
    std::stringstream text;
    text << in.rdbuf();
    Json doc = Json::parse(text.str(), id);
    std::size_t runs = 0;
    for (const auto &[key, grid] : doc.at("grids").members())
        runs += grid.at("runs").items().size();
    return runs;
}

TEST(EvalMemo, CombinedRunMatchesSeparateRunsAndSimulatesEachMachineOnce)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_eval_memo");
    const std::vector<std::string> ids = {"F1", "F5", "F7"};

    // One invocation, every experiment, through an entry directory:
    // the directory ends up with exactly one file per distinct key.
    auto [rc, err] = evalCapturing(
        {"--run", "F1,F5,F7", "--workloads", "copy", "--out",
         (scratch.dir / "combined").string(), "--store",
         (scratch.dir / "store").string()});
    ASSERT_EQ(rc, 0) << err;
    std::size_t requested = 0;
    for (const auto &id : ids)
        requested += runRecords(scratch.dir / "combined", id);
    sim::ResultStore store((scratch.dir / "store").string());
    const std::size_t distinct = store.entries();
    EXPECT_LT(distinct, requested) << "the experiments share machines";
    EXPECT_NE(err.find("store: " + std::to_string(requested) +
                       " run(s), " + std::to_string(distinct) +
                       " simulated"),
              std::string::npos)
        << err;

    // Each experiment on its own renders the same run records.
    for (const auto &id : ids) {
        auto separate = scratch.dir / ("separate-" + id);
        auto [one_rc, one_err] = evalCapturing(
            {"--run", id, "--workloads", "copy", "--out",
             separate.string()});
        ASSERT_EQ(one_rc, 0) << one_err;
        EXPECT_EQ(docWithoutReplay(scratch.dir / "combined", id),
                  docWithoutReplay(separate, id))
            << id;
    }
}

TEST(EvalMemo, TracedRunsBypassTheStore)
{
    VerboseScope quiet(false);
    ScratchDir scratch("cpe_eval_memo_trace");
    std::filesystem::create_directories(scratch.dir);
    const std::string trace = (scratch.dir / "trace.jsonl").string();
    auto [rc, err] =
        evalCapturing({"--run", "F1,F5", "--workloads", "copy", "--trace",
                       trace, "--out", (scratch.dir / "docs").string()});
    ASSERT_EQ(rc, 0) << err;

    // Every requested run simulated and wrote its own events, even the
    // machines F1 and F5 share.
    std::size_t run_begins = 0;
    std::ifstream in(trace);
    for (std::string line; std::getline(in, line);)
        run_begins += line.find("\"run_begin\"") != std::string::npos;
    EXPECT_EQ(run_begins, runRecords(scratch.dir / "docs", "F1") +
                              runRecords(scratch.dir / "docs", "F5"));
    EXPECT_EQ(err.find("store:"), std::string::npos)
        << "no run consulted the store: " << err;
}

// ---------------------------------------------------------------------
// The version guard that makes an on-disk store safe across modeling
// changes.

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

TEST(SimVersion, ResultsMoveOnlyWithAVersionBump)
{
    VerboseScope quiet(false);
    const exp::Experiment &f5 =
        exp::ExperimentRegistry::instance().get("F5");
    std::string rendered;
    for (const auto &result : sim::SweepRunner(0).run(
             exp::suiteConfigs(f5.variants(), {"copy", "crc"})))
        rendered += sim::resultToJson(result).dump() + "\n";
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(rendered)));

    Json doc = Json::object();
    doc["grid"] = "F5 on copy,crc: fnv1a64 of resultToJson per run";
    doc["simulator_version"] = sim::simulatorVersion();
    doc["digest"] = std::string(digest);
    const std::string path =
        std::string(CPE_GOLDEN_DIR) + "/sim_version.json";
    if (std::getenv("CPE_REGEN_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << doc.dump(2) << "\n";
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (generate with CPE_REGEN_GOLDEN=1)";
    std::stringstream text;
    text << in.rdbuf();
    Json golden = Json::parse(text.str(), path);
    const std::string pinned =
        golden.at("simulator_version", path).asString();
    if (pinned != sim::simulatorVersion())
        FAIL() << "simulatorVersion() moved from " << pinned << " to "
               << sim::simulatorVersion() << ": regenerate " << path
               << " with CPE_REGEN_GOLDEN=1";
    EXPECT_EQ(golden.at("digest", path).asString(), digest)
        << "simulated results changed but simulatorVersion() did not: "
           "bump simulatorVersion() (src/sim/simulator.cc) so stored "
           "results go stale, then regenerate "
        << path << " with CPE_REGEN_GOLDEN=1";
}

TEST(SimVersion, VersionSummaryNamesEveryPinnedSchema)
{
    const std::string summary = sim::versionSummary();
    EXPECT_NE(summary.find("simulator "), std::string::npos);
    EXPECT_NE(summary.find("store schema "), std::string::npos);
    EXPECT_NE(summary.find(sim::simulatorVersion()), std::string::npos);
    // The store schema key must fold in the simulator version: a
    // simulator change invalidates every cached result.
    EXPECT_NE(summary.find(std::string("sim-") + sim::simulatorVersion()),
              std::string::npos);
}

} // namespace
} // namespace cpe
