/**
 * @file
 * The dynamic superscalar core: a 4-wide (configurable) out-of-order
 * machine in the R10000 mould, replaying the committed-path trace
 * through fetch -> rename/dispatch -> issue -> commit with the D-cache
 * port subsystem under study bolted to the LSQ and commit stage.
 */

#ifndef CPE_CPU_OOO_CORE_HH
#define CPE_CPU_OOO_CORE_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/dcache_unit.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/fetch.hh"
#include "cpu/func_units.hh"
#include "cpu/issue_queue.hh"
#include "cpu/lsq.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "stats/sampler.hh"
#include "util/json.hh"

namespace cpe::cpu {

/** All core parameters (memory-system parameters live in DCacheParams
 *  and the MemHierarchy the caller provides). */
struct CoreParams
{
    unsigned renameWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    std::size_t robSize = 64;
    std::size_t iqSize = 32;
    /** Front-end depth: fetch-to-dispatch latency, cycles. */
    unsigned decodeLatency = 2;

    FetchParams fetch;
    BranchPredictorParams bpred;
    FuPoolParams fu;
    LsqParams lsq;
    core::DCacheParams dcache;

    /**
     * Absolute forward-progress budget: run() throws ProgressError —
     * carrying a pipeline snapshot — once this many cycles have been
     * simulated.  Guards CI jobs against pathological-but-live
     * configurations.
     */
    Cycle maxCycles = 2'000'000'000;

    /**
     * No-commit watchdog: run() throws ProgressError when this many
     * consecutive cycles pass without a single instruction committing
     * (0 disables).  A wedged machine — e.g. a load that can never
     * acquire a port — trips this long before maxCycles, and the
     * attached snapshot names the stalled structure.
     */
    Cycle noCommitCycleLimit = 250'000;
};

/** Why runDetailed() returned. */
enum class StopReason : std::uint8_t
{
    Halted,    ///< the program's HALT committed
    Exhausted, ///< trace ended without HALT (partial-run mode)
    Boundary,  ///< a commit boundary's hook requested an exit
};

/** The timing core. */
class OooCore
{
  public:
    /**
     * @param params Machine configuration.
     * @param trace Committed-path instruction source (not owned).
     * @param next_level L2+DRAM shared by both L1s (not owned).
     */
    OooCore(const CoreParams &params, func::TraceSource *trace,
            mem::MemHierarchy *next_level);

    /**
     * Run until the program's HALT commits (or the trace ends), then
     * drain the memory subsystem.  Equivalent to runDetailed() +
     * finishRun(); plain full-detail runs call this.
     * @return total simulated cycles.
     */
    Cycle run();

    /**
     * One detailed leg of a phase schedule: simulate cycle by cycle
     * until HALT commits, the trace runs out, or an installed commit
     * boundary's hook requests an exit.  A Boundary return leaves the
     * current cycle incomplete (commit may have consumed only part of
     * its width, and the later pipeline stages have not run) — the
     * phase engine squashes the in-flight window at that point, so
     * the partial cycle is never resumed.
     */
    StopReason runDetailed();

    /**
     * End-of-run epilogue: drain the memory subsystem (post-HALT
     * stores), advance the probe, finalize the sampler.
     * @return total simulated cycles.
     */
    Cycle finishRun();

    /**
     * Install a commit boundary: when total stream position reaches
     * @p stream_pos committed instructions, @p hook runs immediately
     * after the boundary instruction commits (inside the commit
     * stage, exactly where the old warm-up reset fired).  The hook
     * may install the next boundary; its return decides whether the
     * detailed loop continues (true — e.g. a warm-up/measure
     * transition) or exits with StopReason::Boundary (false — e.g.
     * the next phase is a fast-forward).  One boundary is armed at a
     * time; @p stream_pos must be ahead of streamPos().
     */
    using BoundaryHook = std::function<bool(Cycle)>;
    void
    setCommitBoundary(std::uint64_t stream_pos, BoundaryHook hook)
    {
        boundaryTarget_ = stream_pos;
        boundaryHook_ = std::move(hook);
    }

    /**
     * Begin the measurement region at @p now: every statistic
     * (including the committed counter) resets, as does the probe's
     * profile, so dumped stats and ipc() describe the region from
     * here on.  This is the old warm-up-complete transition; callers
     * that warmed up via a boundary hook invoke it there.  The shared
     * memory-hierarchy statistics are the caller's to reset (the core
     * does not own them).
     */
    void beginMeasurement(Cycle now);

    /**
     * Sampled mode: suspend the measurement-cycle accumulator (the
     * machine keeps running — fast-forward and detailed-warmup phases
     * are simply not measured).  Statistics freezing is the phase
     * engine's job (StatGroup snapshot/restore around the pause).
     */
    void pauseMeasurement(Cycle now);

    /** Sampled mode: resume accumulating measured cycles at @p now. */
    void resumeMeasurement(Cycle now);

    /** Whether a measurement region is currently open. */
    bool measuring() const { return measuring_; }

    /** Simulated cycles so far (including any warm-up). */
    Cycle cycles() const { return now_; }

    /** Cycles in the measurement region(s): excludes warm-up, and in
     *  sampled mode everything outside DetailedMeasure intervals. */
    Cycle measuredCycles() const
    {
        return measuredCycles_ +
               (measuring_ ? now_ - measureStartCycle_ : 0);
    }

    /** Committed instructions in the measurement region. */
    std::uint64_t committedInsts() const { return committed_.value(); }

    /** Instructions per cycle over the measurement region. */
    double ipc() const
    {
        Cycle cycles = measuredCycles();
        return cycles ? static_cast<double>(committed_.value()) / cycles
                      : 0.0;
    }

    /**
     * Total committed-stream position: instructions committed in
     * detail plus instructions fast-forwarded past (advanceStream).
     * Commit boundaries are expressed in this coordinate.
     */
    std::uint64_t streamPos() const { return totalCommitted_; }

    /** Account @p n fast-forwarded instructions (the phase engine
     *  consumed them from the source without simulating them). */
    void advanceStream(std::uint64_t n) { totalCommitted_ += n; }

    /**
     * Phase-boundary squash: hand every in-flight committed-path
     * record back to the caller in stream order — the ROB window,
     * then the front end's queue and fill-buffer remnant
     * (FetchUnit::squashAndDrain) — clear the pipeline structures,
     * and drain the memory subsystem of already-committed stores.
     * The caller replays the returned records functionally (they
     * never committed in detail) before pulling fresh ones from the
     * source.  Statistics and cache/predictor state are left alone.
     */
    void extractPending(std::vector<func::DynInst> &pending);

    /**
     * Per-instruction pipeline tracing (a gem5-pipeview-style debug
     * aid): when set, every commit writes one line with the
     * instruction's fetch/dispatch/issue/complete/commit cycles and
     * its disassembly.  Costs time; leave null for measurement runs.
     */
    void setPipeTrace(std::ostream *out) { pipeTrace_ = out; }

    /**
     * Attach the observability probe (null = off, the default).
     * Propagates to the D-cache port subsystem; the core itself
     * reports commit and commit-stall events, attributes stalls to the
     * ROB-head PC, and keeps the probe's cycle current.
     */
    void setProbe(obs::Probe *probe)
    {
        probe_ = probe;
        dcache_.setProbe(probe);
    }

    /**
     * Attach the interval stats sampler (null = off).  run() ticks it
     * once per simulated cycle and finalizes it after the post-HALT
     * drain, so the trailing partial interval is never lost.
     */
    void setSampler(stats::IntervalSampler *sampler)
    {
        sampler_ = sampler;
    }

    core::DCacheUnit &dcache() { return dcache_; }
    FetchUnit &fetch() { return fetch_; }
    Lsq &lsq() { return lsq_; }
    Rob &rob() { return rob_; }
    IssueQueue &issueQueue() { return iq_; }
    BranchPredictor &predictor() { return bpred_; }
    FuPool &fuPool() { return fuPool_; }

    /** Root of the whole core's statistics tree. */
    stats::StatGroup &statGroup() { return statGroup_; }

    /**
     * Structured snapshot of the machine for progress diagnostics:
     * cycle and commit progress, the current phase label, fetch state
     * (PC at the window head, queue depth, trace/stall status),
     * ROB/issue-queue/LSQ occupancy, and store-buffer/MSHR state.
     * This is what a tripped watchdog attaches to its ProgressError,
     * turning a hang into a bug report that names the stalled
     * structure.
     */
    Json pipelineSnapshot(Cycle now);

    /**
     * Label the execution phase for diagnostics ("run" by default;
     * the phase engine sets "warmup"/"measure" at its transitions) so
     * a watchdog trip in a sampled run says which leg hung.  The
     * pointer must outlive its use — pass string literals.
     */
    void setPhaseLabel(const char *label) { phaseLabel_ = label; }
    const char *phaseLabel() const { return phaseLabel_; }

    stats::Scalar committed_;
    stats::Scalar committedLoads;
    stats::Scalar committedStores;
    stats::Scalar storeCommitStalls;  ///< commit blocked handing a store off
    stats::Scalar robEmptyCycles;     ///< frontend-bound cycles
    stats::Scalar commitBlockedCycles;///< head not done (backend-bound)
    stats::Scalar modeSwitches;
    /** Load issue-to-data latency, cycles. */
    stats::Distribution loadLatency;
    /** ROB occupancy sampled once per cycle. */
    stats::Distribution robOccupancy;

  private:
    void commit(Cycle now);
    /** Report a cycle commit made no progress (obs::Stall* cause). */
    void commitStall(Addr pc, Addr addr, std::uint64_t cause);
    void issue(Cycle now);
    void dispatch(Cycle now);

    CoreParams params_;
    mem::MemHierarchy *nextLevel_;

    BranchPredictor bpred_;
    FetchUnit fetch_;
    RenameStage rename_;
    Rob rob_;
    IssueQueue iq_;
    FuPool fuPool_;
    Lsq lsq_;
    core::DCacheUnit dcache_;

    /** Watchdog helper: ProgressError with message + snapshot. */
    [[noreturn]] void tripWatchdog(const std::string &reason, Cycle now);

    Cycle now_ = 0;
    Cycle lastCommitCycle_ = 0;  ///< no-commit watchdog bookkeeping
    bool halted_ = false;
    const char *phaseLabel_ = "run";
    std::ostream *pipeTrace_ = nullptr;
    obs::Probe *probe_ = nullptr;
    stats::IntervalSampler *sampler_ = nullptr;
    std::uint64_t totalCommitted_ = 0;

    /** Armed commit boundary (0 = none) and its hook. */
    std::uint64_t boundaryTarget_ = 0;
    BoundaryHook boundaryHook_;
    /** Set by commit() when a hook asks runDetailed() to exit. */
    bool boundaryExit_ = false;

    /** Measurement-cycle accounting.  A fresh core measures from
     *  cycle 0; beginMeasurement() rebases, pause/resume bracket the
     *  sampled mode's unmeasured phases. */
    bool measuring_ = true;
    Cycle measureStartCycle_ = 0;
    Cycle measuredCycles_ = 0;

    stats::StatGroup statGroup_;
};

} // namespace cpe::cpu

#endif // CPE_CPU_OOO_CORE_HH
