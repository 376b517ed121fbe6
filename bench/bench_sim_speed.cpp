/**
 * @file
 * Simulator-performance microbenchmarks (google-benchmark): how fast
 * the simulator itself runs — functional execution and trace-capture
 * rates, timing-model rate under the key configurations, and the hot
 * cache-access path in isolation.  Not a paper experiment; a tool for
 * keeping the harness usable as it grows.
 */

#include <benchmark/benchmark.h>

#include "core/dcache_unit.hh"
#include "func/captured_trace.hh"
#include "func/executor.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_cache.hh"
#include "util/random.hh"
#include "workload/registry.hh"

namespace {

using namespace cpe;

void
BM_FunctionalExecution(benchmark::State &state)
{
    setVerbose(false);
    workload::WorkloadOptions options;
    auto program =
        workload::WorkloadRegistry::instance().build("crc", options);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        func::Executor executor(program);
        insts += executor.run();
    }
    state.counters["inst_rate"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalExecution)->Unit(benchmark::kMillisecond);

/**
 * Trace capture at F13's default problem size (compress at scale 8):
 * the executor writing straight into a CapturedTrace, plus the
 * warm-command index TraceCache::acquire prebuilds for the default
 * machine's line geometry.  bytes_per_inst is the capture's resident
 * size per record, warm_cmd_bytes_per_inst the index's.
 */
void
BM_Capture(benchmark::State &state)
{
    setVerbose(false);
    sim::SimConfig config = sim::SimConfig::defaults();
    config.workload.scale = 8;
    auto program = workload::WorkloadRegistry::instance().build(
        "compress", config.workload);
    std::uint64_t insts = 0;
    double bytes_per_inst = 0.0;
    double cmd_bytes_per_inst = 0.0;
    for (auto _ : state) {
        func::Executor executor(program);
        auto trace = func::CapturedTrace::capture(executor);
        const func::WarmIndex *index =
            trace.warmIndex(config.core.fetch.icache.lineBytes,
                            config.core.dcache.cache.lineBytes);
        benchmark::DoNotOptimize(index->cmds.data());
        insts += trace.size();
        auto records = static_cast<double>(trace.size());
        bytes_per_inst = static_cast<double>(trace.memoryBytes()) / records;
        cmd_bytes_per_inst = static_cast<double>(index->cmds.size() *
                                                 sizeof(func::WarmCmd)) /
                             records;
    }
    state.counters["inst_rate"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["bytes_per_inst"] = bytes_per_inst;
    state.counters["warm_cmd_bytes_per_inst"] = cmd_bytes_per_inst;
}
BENCHMARK(BM_Capture)->Unit(benchmark::kMillisecond);

void
timingRun(benchmark::State &state, const core::PortTechConfig &tech)
{
    setVerbose(false);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        auto result = sim::simulate("crc", tech);
        insts += result.insts;
        benchmark::DoNotOptimize(result.cycles);
    }
    state.counters["inst_rate"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}

void
BM_TimingSinglePort(benchmark::State &state)
{
    timingRun(state, core::PortTechConfig::singlePortBase());
}
BENCHMARK(BM_TimingSinglePort)->Unit(benchmark::kMillisecond);

/**
 * Also reports the window bookkeeping's deterministic work counters
 * per committed instruction, from one untimed run of the same machine:
 * ROB producer lookups (dispatch-time operand resolution, store commit
 * and store-to-load forwarding) and issue-queue entries visited by
 * select.  They prove an algorithmic change independently of timer
 * noise.
 */
void
BM_TimingAllTechniques(benchmark::State &state)
{
    core::PortTechConfig tech =
        core::PortTechConfig::singlePortAllTechniques();
    timingRun(state, tech);

    sim::SimConfig config = sim::SimConfig::defaults();
    config.core.dcache.tech = tech;
    func::Executor executor(workload::WorkloadRegistry::instance().build(
        "crc", config.workload));
    mem::MemHierarchy hierarchy(config.l2, config.dram);
    cpu::OooCore core(config.core, &executor, &hierarchy);
    core.run();
    auto insts = static_cast<double>(core.committedInsts());
    state.counters["rob_lookups_per_inst"] =
        static_cast<double>(core.rob().producerLookups()) / insts;
    state.counters["iq_visits_per_inst"] =
        static_cast<double>(core.issueQueue().selectVisits()) / insts;
}
BENCHMARK(BM_TimingAllTechniques)->Unit(benchmark::kMillisecond);

/**
 * The same timing run with event tracing and interval sampling live:
 * the delta against BM_TimingAllTechniques is the cost of *enabled*
 * observability.  BM_TimingAllTechniques itself is the disabled cost:
 * every seam is there, branching on a null probe.  The counting sink
 * discards bytes so the measurement excludes disk speed;
 * trace_mb_per_run is the trace volume one run generates.
 */
void
BM_TimingTraced(benchmark::State &state)
{
    setVerbose(false);
    obs::CountingTraceSink sink;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        sim::SimConfig config = sim::SimConfig::defaults();
        config.workloadName = "crc";
        config.core.dcache.tech =
            core::PortTechConfig::singlePortAllTechniques();
        config.obs.traceSink = &sink;
        config.obs.sampleCycles = 1000;
        auto result = sim::simulate(config);
        insts += result.insts;
        benchmark::DoNotOptimize(result.cycles);
    }
    state.counters["inst_rate"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["trace_mb_per_run"] =
        static_cast<double>(sink.bytes()) / 1e6 /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_TimingTraced)->Unit(benchmark::kMillisecond);

/**
 * The same timing run with the stall-attribution profiler live (no
 * tracing): the delta against BM_TimingAllTechniques is the cost of
 * per-PC and per-set counting — a hash-map bucket bump per memory
 * event, expected to be far cheaper than full event tracing.
 */
void
BM_TimingProfiled(benchmark::State &state)
{
    setVerbose(false);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        sim::SimConfig config = sim::SimConfig::defaults();
        config.workloadName = "crc";
        config.core.dcache.tech =
            core::PortTechConfig::singlePortAllTechniques();
        config.obs.profileTop = 10;
        auto result = sim::simulate(config);
        insts += result.insts;
        benchmark::DoNotOptimize(result.cycles);
    }
    state.counters["inst_rate"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimingProfiled)->Unit(benchmark::kMillisecond);

/**
 * The evaluation-harness sweep shape: 4 workloads x 4 variants of
 * fully independent runs, exactly what the table/figure bench binaries
 * execute via runSuite().  BM_SuiteSweep/1 is the serial baseline;
 * higher arguments fan the same grid out across a SweepRunner pool.
 * The "kips" counter is simulated instructions per host wall-clock
 * second (thousands), so the parallel speedup is read straight off
 * the counter ratio.
 */
std::vector<sim::SimConfig>
sweepGridConfigs()
{
    const std::vector<std::string> workloads = {"crc", "histogram",
                                                "saxpy", "stencil"};
    core::PortTechConfig banked = core::PortTechConfig::dualPortBase();
    banked.banks = 4;  // 2 buses over 4 single-ported banks
    const std::vector<core::PortTechConfig> variants = {
        core::PortTechConfig::singlePortBase(),
        core::PortTechConfig::singlePortAllTechniques(),
        core::PortTechConfig::dualPortBase(), banked};
    std::vector<sim::SimConfig> configs;
    for (const auto &workload : workloads) {
        for (const auto &tech : variants) {
            sim::SimConfig config = sim::SimConfig::defaults();
            config.workloadName = workload;
            config.core.dcache.tech = tech;
            configs.push_back(std::move(config));
        }
    }
    return configs;
}

void
BM_SuiteSweep(benchmark::State &state)
{
    setVerbose(false);
    auto configs = sweepGridConfigs();
    sim::SweepRunner runner(static_cast<unsigned>(state.range(0)));
    std::uint64_t insts = 0;
    for (auto _ : state) {
        auto results = runner.run(configs);
        for (const auto &result : results)
            insts += result.insts;
        benchmark::DoNotOptimize(results.data());
    }
    state.counters["kips"] = benchmark::Counter(
        static_cast<double>(insts) / 1000.0, benchmark::Counter::kIsRate);
    state.counters["jobs"] = static_cast<double>(runner.jobs());
}
BENCHMARK(BM_SuiteSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

/**
 * The same grid through the execute-once/replay-many trace cache
 * (cpe_eval's default): each workload's functional model runs once per
 * iteration and all four timing variants replay the capture.  The
 * kips delta against BM_SuiteSweep at the same job count is the
 * functional work the cache removes from a sweep; "captures" confirms
 * one execution per workload per iteration.
 */
void
BM_SuiteSweepReplayed(benchmark::State &state)
{
    setVerbose(false);
    auto configs = sweepGridConfigs();
    sim::SweepRunner runner(static_cast<unsigned>(state.range(0)));
    std::uint64_t insts = 0;
    std::uint64_t captures = 0;
    for (auto _ : state) {
        // A fresh cache per iteration: steady-state sweeps would hit
        // the resident capture every time and measure nothing.
        sim::TraceCache cache;
        for (auto &config : configs)
            config.traceCache = &cache;
        auto results = runner.run(configs);
        for (const auto &result : results)
            insts += result.insts;
        captures += cache.stats().captures;
        benchmark::DoNotOptimize(results.data());
    }
    state.counters["kips"] = benchmark::Counter(
        static_cast<double>(insts) / 1000.0, benchmark::Counter::kIsRate);
    state.counters["jobs"] = static_cast<double>(runner.jobs());
    state.counters["captures"] =
        static_cast<double>(captures) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_SuiteSweepReplayed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void
BM_CacheAccessPath(benchmark::State &state)
{
    mem::CacheParams params;
    params.sizeBytes = 16 * 1024;
    params.assoc = 2;
    params.lineBytes = 32;
    mem::Cache cache(params);
    Rng rng(1);
    std::vector<Addr> addrs(4096);
    for (auto &addr : addrs)
        addr = rng.below(64 * 1024);
    std::size_t i = 0;
    for (auto _ : state) {
        Addr addr = addrs[i++ & 4095];
        if (!cache.access(addr, false))
            cache.fill(addr);
    }
    state.counters["hit_rate"] = static_cast<double>(
        cache.hits.value()) /
        (cache.hits.value() + cache.misses.value());
}
BENCHMARK(BM_CacheAccessPath);

void
BM_StoreBufferDrain(benchmark::State &state)
{
    core::StoreBuffer sb("sb", 8, 32, true);
    Rng rng(2);
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        sb.insert(rng.below(4096) & ~7ull, 8, now);
        if (sb.occupancy() > 4)
            benchmark::DoNotOptimize(sb.drainOne(32, now));
    }
}
BENCHMARK(BM_StoreBufferDrain);

} // namespace

BENCHMARK_MAIN();
