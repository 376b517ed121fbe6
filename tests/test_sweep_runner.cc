/**
 * @file
 * sim::SweepRunner tests: the determinism contract.  A parallel sweep
 * must produce results bit-identical to the serial path — same IPC
 * doubles, same cycle counts, same stats dump text — and hand them
 * back in submission order, so every ResultGrid table renders
 * byte-identically whatever the job count.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/logging.hh"

namespace cpe::sim {
namespace {

/** The 4-workload x 3-variant grid the determinism tests sweep. */
std::vector<SimConfig>
testGrid()
{
    const std::vector<std::string> workloads = {"crc", "histogram",
                                                "saxpy", "strops"};
    const std::vector<core::PortTechConfig> variants = {
        core::PortTechConfig::singlePortBase(),
        core::PortTechConfig::singlePortAllTechniques(),
        core::PortTechConfig::dualPortBase()};
    std::vector<SimConfig> configs;
    for (const auto &workload : workloads) {
        for (const auto &tech : variants) {
            SimConfig config = SimConfig::defaults();
            config.workloadName = workload;
            config.core.dcache.tech = tech;
            configs.push_back(std::move(config));
        }
    }
    return configs;
}

TEST(SweepRunner, ParallelGridIsBitIdenticalToSerial)
{
    VerboseScope quiet(false);
    auto configs = testGrid();

    SweepRunner serial(1);
    SweepRunner parallel(4);
    auto expected = serial.run(configs);
    auto actual = parallel.run(configs);

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE(expected[i].workload + " / " +
                     expected[i].configTag);
        // Exact equality on doubles is deliberate: each run owns its
        // machine and RNGs, so the arithmetic must be identical.
        EXPECT_EQ(actual[i].workload, expected[i].workload);
        EXPECT_EQ(actual[i].configTag, expected[i].configTag);
        EXPECT_EQ(actual[i].cycles, expected[i].cycles);
        EXPECT_EQ(actual[i].insts, expected[i].insts);
        EXPECT_EQ(actual[i].ipc, expected[i].ipc);
        EXPECT_EQ(actual[i].portUtilization,
                  expected[i].portUtilization);
        EXPECT_EQ(actual[i].l1dMissRate, expected[i].l1dMissRate);
        EXPECT_EQ(actual[i].statsDump, expected[i].statsDump);
    }
}

TEST(SweepRunner, ParallelTablesRenderByteIdenticalToSerial)
{
    VerboseScope quiet(false);
    auto configs = testGrid();

    auto serialGrid = SweepRunner(1).runGrid(configs);
    auto parallelGrid = SweepRunner(4).runGrid(configs);

    EXPECT_EQ(parallelGrid.workloads(), serialGrid.workloads());
    EXPECT_EQ(parallelGrid.configs(), serialGrid.configs());
    EXPECT_EQ(parallelGrid.ipcTable().render(),
              serialGrid.ipcTable().render());
    EXPECT_EQ(parallelGrid.relativeTable(serialGrid.configs().front())
                  .render(),
              serialGrid.relativeTable(serialGrid.configs().front())
                  .render());
}

TEST(SweepRunner, ResultsArriveInSubmissionOrder)
{
    VerboseScope quiet(false);
    auto configs = testGrid();
    auto results = SweepRunner(8).run(configs);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(results[i].workload, configs[i].workloadName);
        EXPECT_EQ(results[i].configTag, configs[i].tag());
    }
}

TEST(SweepRunner, EmptySweepIsFine)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(SweepRunner, SingleConfigRunsInline)
{
    VerboseScope quiet(false);
    SimConfig config = SimConfig::defaults();
    config.workloadName = "crc";
    auto results = SweepRunner(8).run({config});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].insts, 0u);
}

TEST(SweepRunner, JobsResolveFromConstructorEnvAndOverride)
{
    SweepRunner explicitJobs(3);
    EXPECT_EQ(explicitJobs.jobs(), 3u);

    SweepRunner::setDefaultJobs(5);
    EXPECT_EQ(SweepRunner::defaultJobs(), 5u);
    EXPECT_EQ(SweepRunner(0).jobs(), 5u);
    SweepRunner::setDefaultJobs(0);

    ASSERT_EQ(setenv("CPESIM_JOBS", "7", 1), 0);
    EXPECT_EQ(SweepRunner::defaultJobs(), 7u);
    ASSERT_EQ(unsetenv("CPESIM_JOBS"), 0);
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
}

/** The replay accounting of one scheduled run, for comparisons. */
std::string
charged(const ScheduledRun &run)
{
    const TraceCache::Stats &work = run.cacheWork;
    return std::to_string(work.captures) + " capture(s), " +
           std::to_string(work.replays) + " replay(s), " +
           std::to_string(work.diskLoads) + " load(s), " +
           std::to_string(work.instsSkipped) + " skipped";
}

TEST(SweepRunner, PooledScheduleChargesCacheWorkAsTheSerialOrderDoes)
{
    VerboseScope quiet(false);
    // Two workloads of the grid, then a repeat of its first machine
    // (which the store answers) and one more run of each stream under
    // a new machine.
    auto base = testGrid();
    base.resize(6);
    std::vector<SimConfig> configs = base;
    configs.push_back(base.front());
    for (std::size_t i = 0; i < base.size(); i += 3) {
        SimConfig wide = base[i];
        wide.core.dcache.tech.portWidthBytes = 32;
        configs.push_back(wide);
    }

    auto schedule = [&](unsigned jobs, TraceCache &cache) {
        auto with_cache = configs;
        for (auto &config : with_cache)
            config.traceCache = &cache;
        ResultStore store;
        ResultStore::setActive(&store);
        auto runs = SweepRunner(jobs).runSchedule(with_cache);
        ResultStore::setActive(nullptr);
        return runs;
    };
    TraceCache serial_cache, pooled_cache;
    auto serial = schedule(1, serial_cache);
    auto pooled = schedule(4, pooled_cache);

    ASSERT_EQ(pooled.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(pooled[i].outcome.ok());
        EXPECT_EQ(pooled[i].outcome.result.statsDump,
                  serial[i].outcome.result.statsDump);
        EXPECT_EQ(pooled[i].outcome.attempts, serial[i].outcome.attempts);
        EXPECT_EQ(charged(pooled[i]), charged(serial[i]));
    }
    // The serial order: each workload's first run captures, the rest
    // replay, and the memo answers the repeat without any cache work.
    EXPECT_EQ(serial[0].cacheWork.captures, 1u);
    EXPECT_EQ(serial[1].cacheWork.replays, 1u);
    EXPECT_EQ(serial[base.size()].outcome.attempts, 0u);
    EXPECT_EQ(charged(serial[base.size()]), charged(ScheduledRun{}));
    // Preparing first leaves the cache's own counters where the serial
    // order leaves them.
    EXPECT_EQ(pooled_cache.stats().captures, serial_cache.stats().captures);
    EXPECT_EQ(pooled_cache.stats().replays, serial_cache.stats().replays);
}

} // namespace
} // namespace cpe::sim
