/**
 * @file
 * Top-level simulation configuration: one struct gathering the core,
 * memory-system, technique, and workload parameters, with the default
 * values modelling the paper's machine — a 4-issue dynamic superscalar
 * with 16 KiB split L1s, 32-byte lines, a unified L2, and the D-cache
 * port subsystem under study.
 */

#ifndef CPE_SIM_CONFIG_HH
#define CPE_SIM_CONFIG_HH

#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "obs/tracer.hh"
#include "sim/sample_scheduler.hh"
#include "util/fault.hh"
#include "workload/registry.hh"

namespace cpe::sim {

class TraceCache;

/**
 * Observability knobs: cycle-level event tracing and interval stats
 * sampling.  Both default off and, when off, cost nothing — the hooks
 * compile to a null-pointer test and results are byte-identical.
 */
struct ObsParams
{
    /**
     * Interval length for stats sampling, cycles (machine-file key
     * [obs] sample_cycles; 0 = off).  Each elapsed interval snapshots
     * every scalar's delta, so the per-interval values sum to the
     * run's final totals.
     */
    Cycle sampleCycles = 0;

    /**
     * Event-trace sink (not owned; null = tracing off).  One sink may
     * be shared by concurrent runs — each run claims a distinct run id
     * and every JSONL line carries it.
     */
    obs::TraceSink *traceSink = nullptr;

    /**
     * Stall-attribution profiling (machine-file key [obs] profile;
     * 0 = off).  When nonzero the run carries an obs::Profiler, the
     * results JSON gains a "profile" member, and reports print the
     * top-N per-PC stall table.  Like tracing, profiling never
     * perturbs the simulated numbers.
     */
    unsigned profileTop = 0;
};

/**
 * One validation finding: the offending parameter (dotted path, e.g.
 * "l1d.line" or "tech.ports") and a human-readable explanation.
 */
struct ConfigDiagnostic
{
    std::string field;
    std::string message;
};

/** Everything one simulation run needs. */
struct SimConfig
{
    std::string workloadName = "compress";
    workload::WorkloadOptions workload;

    cpu::CoreParams core;
    mem::L2Params l2;
    mem::DramParams dram;

    /**
     * Committed instructions to discard as warm-up before measuring
     * (0 = measure the whole run, the evaluation default: workloads
     * are run to completion like the paper's).
     */
    std::uint64_t warmupInsts = 0;

    /**
     * SMARTS-style sampled simulation (machine-file section [sample];
     * off by default).  When enabled the run alternates warm-only
     * fast-forward with short detailed measurement intervals and
     * reports mean IPC with a Student-t confidence interval; warm-up,
     * cycle-interval sampling, and event tracing are full-detail
     * features and are rejected alongside it (see validate()).
     */
    SampleParams sample;

    /** A short tag for tables (defaults to the tech description). */
    std::string label;

    /** Event tracing + interval sampling (off by default). */
    ObsParams obs;

    /**
     * Shared functional-trace cache (not owned; null = execute the
     * functional model live).  When set, simulate() acquires the
     * committed-path capture for this config's functional half —
     * executing it at most once per (workload, functional-knobs)
     * group, even across concurrent sweep workers — and replays the
     * immutable capture through the timing model.  Replayed results
     * are byte-identical to live-executed ones (the replay
     * determinism contract, tests/test_replay_differential.cc).
     */
    TraceCache *traceCache = nullptr;

    /**
     * Fault-injection schedule (machine-file section [chaos]; cpe_eval
     * --chaos).  Off by default (rate 0).  The schedule itself is
     * process-wide — simulate() never arms it — so a config carrying
     * one stays a pure description; the CLI boundary that loaded it
     * (cpe_eval, technique_explorer) arms the FaultInjector before
     * running.  See docs/robustness.md.
     */
    util::ChaosSpec chaos;

    /** The machine model used throughout the evaluation. */
    static SimConfig defaults();

    /** Convenience access to the technique knobs. */
    core::PortTechConfig &tech() { return core.dcache.tech; }
    const core::PortTechConfig &tech() const { return core.dcache.tech; }

    /** @return the label, or tech().describe() when unset. */
    std::string tag() const;

    /** Multi-line "parameter = value" table (experiment T1). */
    std::string describe() const;

    /**
     * Check the configuration against the simulator's structural
     * contracts — power-of-two cache geometry, port/bank/MSHR/
     * store-buffer bounds, known workload name, warm-up vs. run
     * length, watchdog budgets — and return every violation found
     * (empty = valid).  This catches, as recoverable diagnostics,
     * everything that would otherwise panic() inside a component
     * constructor or wedge the timing loop.
     */
    std::vector<ConfigDiagnostic> validate() const;

    /**
     * validate(), folded into an exception: throws ConfigError listing
     * every diagnostic when the configuration is invalid.  simulate()
     * calls this before constructing the machine.
     */
    void validateOrThrow() const;
};

} // namespace cpe::sim

#endif // CPE_SIM_CONFIG_HH
