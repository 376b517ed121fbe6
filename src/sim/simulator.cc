#include "sim/simulator.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "func/captured_trace.hh"
#include "func/executor.hh"
#include "obs/probe.hh"
#include "sim/phase_engine.hh"
#include "sim/trace_cache.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace cpe::sim {

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {}

SimResult
Simulator::run()
{
    // Refuse structurally invalid machines up front: every violation
    // reported at once as a recoverable ConfigError, instead of the
    // first one panicking inside a component constructor.
    config_.validateOrThrow();

    // The functional half: live golden-model execution by default, or
    // a replay of the shared committed-path capture when a TraceCache
    // is installed (execute-once, replay-many — the stream is
    // identical either way, so the measured numbers are too).
    std::shared_ptr<const func::CapturedTrace> captured;
    std::unique_ptr<func::TraceSource> source;
    if (config_.traceCache) {
        captured = config_.traceCache->acquire(config_);
        source = std::make_unique<func::ReplayTraceSource>(captured);
    } else {
        if (CPE_FAULT_POINT("workload.capture"))
            throw IoError(
                "chaos: injected fault at workload.capture");
        const auto &registry = workload::WorkloadRegistry::instance();
        source = std::make_unique<func::Executor>(
            registry.build(config_.workloadName, config_.workload));
    }

    mem::MemHierarchy hierarchy(config_.l2, config_.dram);
    // The core always reads through the stitched source so phase
    // boundaries can hand fetched-but-uncommitted records back to the
    // stream (a no-op passthrough for full-detail runs).
    StitchedTraceSource stitched(source.get());
    cpu::OooCore core(config_.core, &stitched, &hierarchy);

    // The phase schedule: a plain run is the degenerate plan (optional
    // stats-frozen warm-up, then measure to the end); sampled runs
    // alternate warm-only fast-forward with detailed intervals.
    bool sampled = config_.sample.enabled();
    SamplePlan plan =
        sampled ? SampleScheduler::plan(config_.sample,
                                        captured ? captured->size() : 0)
                : SampleScheduler::degenerate(config_.warmupInsts);
    PhaseEngine engine(plan, core, stitched, hierarchy,
                       config_.sample.confidence);

    // Observability (all off by default).  The tracer, profiler,
    // probe, and sampler are stack-local: they only observe, so their
    // lifetime ends with the run and the machine never owns them.
    const mem::CacheParams &l1d = config_.core.dcache.cache;
    obs::Tracer tracer;
    std::optional<obs::Profiler> profiler;
    if (config_.obs.traceSink)
        tracer.beginRun(config_.obs.traceSink, config_.workloadName,
                        config_.tag(), config_.obs.sampleCycles,
                        l1d.sets(), l1d.lineBytes);
    if (config_.obs.profileTop)
        profiler.emplace(l1d.sets(), l1d.lineBytes);
    obs::Probe probe(tracer.active() ? &tracer : nullptr,
                     profiler ? &*profiler : nullptr);
    if (tracer.active() || profiler)
        core.setProbe(&probe);
    stats::IntervalSampler sampler(config_.obs.sampleCycles);
    if (sampled) {
        // Phase-mode timeseries: one record per measurement interval,
        // closed by the engine (the per-cycle tick is inert).
        sampler.setPhaseMode();
        sampler.attach(core.statGroup());
        sampler.attach(hierarchy.statGroup());
        sampler.start(0);
        engine.setSampler(&sampler);
    } else if (sampler.enabled()) {
        sampler.attach(core.statGroup());
        sampler.attach(hierarchy.statGroup());
        if (tracer.active())
            sampler.setTracer(&tracer);
        sampler.start(0);
        core.setSampler(&sampler);
    }

    engine.run();

    SimResult result;
    result.workload = config_.workloadName;
    result.configTag = config_.tag();
    result.cycles = core.measuredCycles();
    result.insts = core.committedInsts();
    result.ipc = core.ipc();
    if (sampled) {
        stats::Estimate cpi = engine.cpiEstimate();
        result.sampled = true;
        // The headline IPC is the inverted mean-CPI estimate — the
        // SMARTS estimator — with the confidence interval transformed
        // through the same reciprocal (CPI in [lo, hi] means IPC in
        // [1/hi, 1/lo]).  A CI so wide its CPI floor reaches zero is
        // clamped to a sliver of the mean rather than emitting an
        // unrepresentable infinite bound.
        if (cpi.n) {
            result.ipc = cpi.mean > 0.0 ? 1.0 / cpi.mean : 0.0;
            result.ipcCiLow =
                cpi.ciHigh > 0.0 ? 1.0 / cpi.ciHigh : 0.0;
            double cpi_floor = std::max(cpi.ciLow, 1e-3 * cpi.mean);
            result.ipcCiHigh =
                cpi_floor > 0.0 ? 1.0 / cpi_floor : result.ipc;
        } else {
            // A stream shorter than one full interval left no
            // steady-state samples: fall back to the measured-union
            // ratio with a collapsed interval.
            result.ipcCiLow = result.ipc;
            result.ipcCiHigh = result.ipc;
        }
        result.measuredIntervals = cpi.n;
        result.ipcCiHalf = (result.ipcCiHigh - result.ipcCiLow) / 2.0;
        result.ipcRelErrPct = cpi.relErrorPct();
        result.ffInsts = engine.ffInsts();
        Json sample_doc = Json::object();
        sample_doc["mode"] = SampleParams::modeName(config_.sample.mode);
        sample_doc["confidence"] = cpi.confidence;
        sample_doc["intervals"] = cpi.n;
        sample_doc["mean_cpi"] = cpi.mean;
        sample_doc["mean_ipc"] = result.ipc;
        sample_doc["ci_low"] = result.ipcCiLow;
        sample_doc["ci_high"] = result.ipcCiHigh;
        sample_doc["ci_half_width"] = result.ipcCiHalf;
        sample_doc["rel_err_pct"] = cpi.relErrorPct();
        sample_doc["ff_insts"] = engine.ffInsts();
        sample_doc["measured_insts"] = result.insts;
        sample_doc["measured_cycles"] = result.cycles;
        result.sampleJson = sample_doc.dump(2);
    }

    auto &dcache = core.dcache();
    result.portUtilization =
        dcache.ports().statGroup().formulaValue("utilization");
    result.l1dMissRate = dcache.l1d().statGroup().formulaValue("miss_rate");
    result.lineBufferHitRate =
        dcache.lineBuffers().statGroup().formulaValue("hit_rate");
    result.sbStoresPerDrain =
        dcache.storeBuffer().statGroup().formulaValue("stores_per_drain");
    result.loadPortFraction =
        dcache.statGroup().formulaValue("port_accesses_per_load");
    result.condAccuracy =
        core.predictor().statGroup().formulaValue("cond_accuracy");
    result.storeCommitStalls = core.storeCommitStalls.value();
    result.modeSwitches = core.modeSwitches.value();
    result.statsDump =
        core.statGroup().dump() + hierarchy.statGroup().dump();
    Json stats = Json::object();
    stats[core.statGroup().name()] = core.statGroup().toJson();
    stats[hierarchy.statGroup().name()] = hierarchy.statGroup().toJson();
    result.statsJson = stats.dump(2);

    if (sampler.enabled())
        result.timeseriesJson = sampler.toJson().dump(2);
    if (profiler)
        result.profileJson =
            profiler->toJson(config_.obs.profileTop).dump(2);
    if (tracer.active()) {
        // run_end carries the final scalar totals so a trace consumer
        // can check its aggregated intervals without the results JSON.
        Json final_stats = Json::object();
        auto add_nonzero = [&final_stats](const std::string &name,
                                          const stats::Scalar &stat) {
            if (stat.value())
                final_stats[name] = stat.value();
        };
        core.statGroup().forEachScalar(add_nonzero);
        hierarchy.statGroup().forEachScalar(add_nonzero);
        tracer.endRun(result.cycles, result.insts, result.ipc,
                      final_stats);
    }
    return result;
}

const char *
simulatorVersion()
{
    return "1";
}

SimResult
simulate(const SimConfig &config)
{
    Simulator simulator(config);
    return simulator.run();
}

SimResult
simulate(const std::string &workload, const core::PortTechConfig &tech,
         unsigned os_level)
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = workload;
    config.workload.osLevel = os_level;
    config.core.dcache.tech = tech;
    return simulate(config);
}

} // namespace cpe::sim
