/**
 * @file
 * Differential tests for the observability layer: tracing and interval
 * sampling are pure observers, so turning them on must not change a
 * single measured number.  Each seed workload runs twice — obs off and
 * obs on — and every SimResult field plus the final stats JSON must be
 * bit-identical; a parallel sweep sharing one sink must likewise render
 * a byte-identical grid document.  With the tracer and the profiler on
 * one probe, each must see exactly what it sees alone.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exp/experiment.hh"
#include "exp/registry.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "util/json.hh"

namespace cpe::sim {
namespace {

SimConfig
seedConfig(const std::string &workload)
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = workload;
    config.core.dcache.tech =
        core::PortTechConfig::singlePortAllTechniques();
    return config;
}

/** Compare every measured field of two results, reporting @p what. */
void
expectIdentical(const SimResult &off, const SimResult &on,
                const std::string &what)
{
    EXPECT_EQ(off.cycles, on.cycles) << what;
    EXPECT_EQ(off.insts, on.insts) << what;
    EXPECT_EQ(off.ipc, on.ipc) << what;
    EXPECT_EQ(off.portUtilization, on.portUtilization) << what;
    EXPECT_EQ(off.l1dMissRate, on.l1dMissRate) << what;
    EXPECT_EQ(off.lineBufferHitRate, on.lineBufferHitRate) << what;
    EXPECT_EQ(off.sbStoresPerDrain, on.sbStoresPerDrain) << what;
    EXPECT_EQ(off.loadPortFraction, on.loadPortFraction) << what;
    EXPECT_EQ(off.condAccuracy, on.condAccuracy) << what;
    EXPECT_EQ(off.storeCommitStalls, on.storeCommitStalls) << what;
    EXPECT_EQ(off.statsDump, on.statsDump) << what;
    EXPECT_EQ(off.statsJson, on.statsJson) << what;
}

TEST(ObsDifferential, TracingDoesNotPerturbResults)
{
    for (const std::string workload : {"copy", "crc", "saxpy"}) {
        SimResult off = simulate(seedConfig(workload));

        obs::StringTraceSink sink;
        SimConfig traced = seedConfig(workload);
        traced.obs.traceSink = &sink;
        traced.obs.sampleCycles = 5000;
        SimResult on = simulate(traced);

        expectIdentical(off, on, workload);
        EXPECT_TRUE(off.timeseriesJson.empty()) << workload;
        EXPECT_FALSE(on.timeseriesJson.empty()) << workload;
        EXPECT_FALSE(sink.text().empty()) << workload;
    }
}

TEST(ObsDifferential, TracerAndProfilerShareOneProbe)
{
    const exp::Experiment &f5 =
        exp::ExperimentRegistry::instance().get("F5");
    for (SimConfig config :
         exp::suiteConfigs(f5.variants(), {"copy", "crc"})) {
        const std::string what = config.workloadName + " / " + config.tag();
        SimResult plain = simulate(config);

        obs::StringTraceSink traced_sink;
        config.obs.traceSink = &traced_sink;
        simulate(config);

        config.obs.traceSink = nullptr;
        config.obs.profileTop = 10;
        SimResult profiled = simulate(config);

        obs::StringTraceSink both_sink;
        config.obs.traceSink = &both_sink;
        SimResult both = simulate(config);

        expectIdentical(plain, both, what);
        // EXPECT_TRUE, not EXPECT_EQ: a failure must not print two
        // multi-megabyte traces.
        const std::string trace = traced_sink.text();
        EXPECT_FALSE(trace.empty()) << what;
        EXPECT_TRUE(both_sink.text() == trace) << what;
        EXPECT_FALSE(profiled.profileJson.empty()) << what;
        EXPECT_EQ(both.profileJson, profiled.profileJson) << what;
    }
}

TEST(ObsDifferential, TraceIsValidJsonl)
{
    obs::StringTraceSink sink;
    SimConfig config = seedConfig("copy");
    config.obs.traceSink = &sink;
    config.obs.sampleCycles = 2000;
    simulate(config);

    std::istringstream lines(sink.text());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        Json parsed = Json::parse(line, "trace line");
        EXPECT_TRUE(parsed.find("t")) << line;
        EXPECT_TRUE(parsed.find("r")) << line;
        ++count;
    }
    EXPECT_GT(count, 2u);  // run_begin + at least one event + run_end
}

TEST(ObsDifferential, RerunWithTracingIsDeterministic)
{
    obs::StringTraceSink first_sink;
    SimConfig config = seedConfig("copy");
    config.obs.traceSink = &first_sink;
    simulate(config);

    obs::StringTraceSink second_sink;
    config.obs.traceSink = &second_sink;
    simulate(config);

    EXPECT_EQ(first_sink.text(), second_sink.text());
}

TEST(ObsDifferential, ParallelSweepStaysByteIdentical)
{
    std::vector<SimConfig> plain;
    std::vector<SimConfig> traced;
    obs::StringTraceSink sink;
    for (const std::string workload : {"copy", "crc"}) {
        for (bool dual : {false, true}) {
            SimConfig config = seedConfig(workload);
            if (dual)
                config.core.dcache.tech =
                    core::PortTechConfig::dualPortBase();
            config.label = dual ? "dual" : "techniques";
            plain.push_back(config);
            config.obs.traceSink = &sink;
            config.obs.sampleCycles = 4000;
            traced.push_back(config);
        }
    }

    SweepRunner runner;
    std::string off = runner.runGrid(plain).toJson().dump(2);
    // Strip the traced grid's per-run timeseries before comparing: it
    // is the one intentional addition; everything else must match byte
    // for byte.
    Json with = runner.runGrid(traced).toJson();
    Json stripped = Json::object();
    for (const auto &[key, value] : with.members()) {
        if (key != "runs") {
            stripped[key] = value;
            continue;
        }
        Json runs = Json::array();
        for (const auto &run : value.items()) {
            ASSERT_TRUE(run.find("timeseries"));
            Json copy = Json::object();
            for (const auto &[field, field_value] : run.members())
                if (field != "timeseries")
                    copy[field] = field_value;
            runs.push(std::move(copy));
        }
        stripped[key] = std::move(runs);
    }
    EXPECT_EQ(off, stripped.dump(2));

    // Four runs interleaved into one sink: every line still parses and
    // carries one of four run ids.
    std::istringstream lines(sink.text());
    std::string line;
    unsigned begins = 0;
    unsigned ends = 0;
    while (std::getline(lines, line)) {
        Json parsed = Json::parse(line, "sweep trace line");
        std::uint64_t run_id =
            static_cast<std::uint64_t>(parsed.at("r").asNumber());
        EXPECT_LT(run_id, 4u);
        const std::string &type = parsed.at("t").asString();
        if (type == "run_begin")
            ++begins;
        if (type == "run_end")
            ++ends;
    }
    EXPECT_EQ(begins, 4u);
    EXPECT_EQ(ends, 4u);
}

} // namespace
} // namespace cpe::sim
