/**
 * @file
 * The experiment subsystem: descriptors for the reconstructed
 * evaluation's tables and figures (T1–T3, F1–F13), replacing the old
 * one-binary-per-experiment harness.
 *
 * An Experiment names its primary variant grid (what the regression
 * gate re-runs and the tests validate), declares every grid its body
 * renders, and has a run() body that renders the experiment exactly as
 * the former bench binaries did, while recording every grid and
 * headline ratio into a stable-keyed JSON document through the
 * Context.  Bodies fetch their grids; they do not run them.  cpe_eval
 * runs the grids of every selected experiment as one pool (Schedule)
 * before the first body renders.
 */

#ifndef CPE_EXP_EXPERIMENT_HH
#define CPE_EXP_EXPERIMENT_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/port_config.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "sim/sweep_runner.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace cpe::exp {

/** A labelled machine variant to sweep (one grid column). */
struct Variant
{
    std::string label;
    core::PortTechConfig tech;
    unsigned osLevel = 0;
    /** Optional extra tweaks applied to the full config. */
    std::function<void(sim::SimConfig &)> tweak = {};
};

/**
 * Expand (workloads x variants) into the flat config list a grid run
 * executes; exposed so tests, the regression gate, and the speed
 * bench can reuse the exact grid shape.  Any installed fault-injection
 * plan (setFaultInjection) is applied to matching configs.
 */
std::vector<sim::SimConfig>
suiteConfigs(const std::vector<Variant> &variants,
             const std::vector<std::string> &workloads);

/**
 * Fault-injection hook for exercising the fault-isolation machinery
 * end to end (cpe_eval --fault-inject, the keep-going smoke test).
 * Each plan entry is (workload, kind): configs for that workload are
 * sabotaged in suiteConfigs() — kind "config" zeroes the L1D
 * associativity (a validate()-caught geometry error), kind "hang"
 * drops the no-commit watchdog to a handful of cycles (a guaranteed
 * ProgressError with a pipeline snapshot).  Pass an empty vector to
 * clear.  Unknown kinds are rejected here, at installation time, with
 * a ConfigError naming the valid ones.  A testing hook, not an
 * evaluation feature.
 */
void setFaultInjection(
    std::vector<std::pair<std::string, std::string>> plan);

/** The installed fault plan (empty = none). */
std::vector<std::pair<std::string, std::string>> faultInjection();

/**
 * Observability hook (cpe_eval --trace / --sample-cycles /
 * --profile[=N]).  Every config built by suiteConfigs() whose variant
 * leaves sampled simulation off gets this trace sink (shareable
 * across the sweep workers — each run claims its own run id) and
 * interval-sampling period, which both need a full-detail run; with
 * @p profile_top nonzero every config also gets stall-attribution
 * profiling with top-N reporting.  Pass (nullptr, 0, 0) to clear.
 * Like the fault plan, set before a sweep starts, never during one.
 */
void setObservability(obs::TraceSink *sink, Cycle sample_cycles,
                      unsigned profile_top = 0);

/**
 * Execute-once/replay-many hook (installed by cpe_eval unless
 * --no-replay): every config built by suiteConfigs() consults
 * @p cache, so each grid executes the functional model once per
 * (workload, functional-knobs) group and replays the shared capture
 * through every timing variant.  Context::grid reports the
 * functional work saved per grid — one summary line plus a "replay"
 * member in the grid's JSON record.  Pass nullptr to clear; set
 * before a sweep starts, never during one.
 */
void setTraceCache(sim::TraceCache *cache);

/**
 * Sampled-simulation hook (cpe_eval --sample-mode and friends): every
 * config built by suiteConfigs() gets these [sample] parameters, so a
 * whole evaluation can be re-run under SMARTS-style sampling without
 * touching the experiment bodies.  Pass a default-constructed (mode
 * off) value to clear.  Set before a sweep starts, never during one.
 */
void setSampling(const sim::SampleParams &params);

class Context;

/** One grid an experiment renders: labelled variants over workloads. */
struct GridSpec
{
    /** Where the grid lands in the JSON document: grids.<key>. */
    std::string key;
    std::vector<Variant> variants;
    /** The grid's rows, in order (usually the suite). */
    std::vector<std::string> workloads;
    /** Column the recorded relative geomeans divide by ("" = none). */
    std::string baseline = "";
};

/** One registered experiment of the reconstructed evaluation. */
struct Experiment
{
    /** Unique id, e.g. "F5" (uppercase letter + number). */
    std::string id;
    /** Banner title, e.g. "single port + techniques vs dual-ported
     * cache". */
    std::string title;
    /** One-sentence summary — what the experiment shows and which of
     *  the paper's tables/figures it reconstructs (--list prints it). */
    std::string description;
    /**
     * Builds the primary variant grid: the columns the regression
     * gate re-runs against the committed baselines, and what
     * --list/tests introspect.  Must return a non-empty vector with
     * unique labels.
     */
    std::function<std::vector<Variant>()> variants;
    /**
     * Workloads of the primary grid; empty means the evaluation
     * suite (or the driver's --workloads override).
     */
    std::vector<std::string> workloads;
    /** Baseline column of the primary grid ("" = no relative view). */
    std::string baseline;
    /**
     * Primary-grid variant labels the regression gate leaves out:
     * columns whose metric is a statistical estimate with its own
     * confidence interval (F13's sampled runs), where a scalar
     * geomean-drift gate is the wrong contract.  --write-baseline and
     * --check drop these columns and report them as SKIP.
     */
    std::vector<std::string> gateExclude;
    /**
     * Every grid the body fetches, for the given suite, in the order
     * it fetches them: the order a one-at-a-time sweep would run them,
     * which the replay accounting follows.  Unset means the body
     * fetches no grid (T1, T2, and F13, which times its own runs).
     */
    std::function<std::vector<GridSpec>(
        const std::vector<std::string> &suite)>
        grids;
    /**
     * The full experiment body: fetches its grids through the Context
     * (so they land in the JSON document) and writes the same tables
     * and notes the standalone binary printed.
     */
    std::function<void(Context &)> run;
};

/** The runs of one declared grid, as Context::grid() fetches them. */
struct GridRuns
{
    /** The grid's configs, workload-major (suiteConfigs). */
    std::vector<sim::SimConfig> configs;
    /** One per config: the outcome and its share of the cache work. */
    std::vector<sim::ScheduledRun> runs;
};

/**
 * The grids of several experiments, run as one pool before any of
 * them renders: what cpe_eval --run hands each Context.  The pool's
 * order is experiment (as given) -> grid (as declared) -> config.
 */
class Schedule
{
  public:
    /** Run every grid @p experiments declare for @p suite. */
    Schedule(const std::vector<const Experiment *> &experiments,
             const std::vector<std::string> &suite);

    /** @p experiment's grid @p key; nullptr when it has none. */
    const GridRuns *find(const std::string &experiment,
                         const std::string &key) const;

  private:
    std::map<std::pair<std::string, std::string>, GridRuns> grids_;
};

/**
 * Execution context handed to an experiment body: the output stream
 * for tables, the (possibly overridden) workload suite, the declared
 * grids, and the JSON results document being assembled.
 */
class Context
{
  public:
    /**
     * @param out where tables render (a null sink in --format json).
     * @param workloads non-empty to override the evaluation suite.
     * @param keep_going fault-isolating mode: a failing run becomes a
     *        structured "errors" record in the JSON document instead
     *        of an exception ending the experiment.
     * @param schedule where the declared grids already ran; without
     *        one, grid() runs each grid when the body first asks.
     */
    Context(const Experiment &experiment, std::ostream &out,
            std::vector<std::string> workloads = {},
            bool keep_going = false, const Schedule *schedule = nullptr);

    std::ostream &out() { return out_; }
    const Experiment &experiment() const { return experiment_; }

    /** The default workload suite (the --workloads override if set). */
    const std::vector<std::string> &suite() const { return suite_; }

    /**
     * The declared grid @p key (Experiment::grids), results in
     * workload-major order: taken from the schedule, or run now — one
     * grid as one pool — when the context has none.  The first fetch
     * records it in the JSON document under grids.@p key (with its
     * replay accounting and, in keep-going mode, its failures), prints
     * the replay line and any profiles, and throws the first failed
     * run's error outside keep-going mode.
     */
    const sim::ResultGrid &grid(const std::string &key);

    /**
     * The result of @p machine, for a derived column: the run of the
     * identical machine in a grid fetched so far — same machine text,
     * so the same workload inputs and hooks, and no fault injected —
     * else a side simulation of @p machine, live and outside the
     * result memo and the trace cache.
     */
    sim::SimResult machineResult(const sim::SimConfig &machine);

    /** Print absolute IPCs and the relative-to-baseline view. */
    void printGrid(const sim::ResultGrid &grid,
                   const std::string &baseline);

    /**
     * Print each run's stall-attribution table (cpe_eval --profile);
     * no-op for cells without a profile.  grid() calls this after
     * recording the grid.
     */
    void printProfiles(const sim::ResultGrid &grid);

    /** Record a named headline ratio in the JSON document. */
    void headline(const std::string &key, double value);

    /** Whether grid() isolates per-run failures (--keep-going). */
    bool keepGoing() const { return keepGoing_; }

    /** Runs that failed across every grid so far (keep-going mode). */
    unsigned failedRuns() const { return failedRuns_; }

    /** One line per failure, for the driver's end-of-run summary. */
    const std::vector<std::string> &failureSummaries() const
    {
        return failureSummaries_;
    }

    /**
     * Record a failure of the experiment body itself (e.g. a lookup
     * on a cell a failed run never produced) under the document's
     * "error" key.  Driver use; bodies just throw.
     */
    void noteBodyError(const SimError &error);

    /** The document assembled so far (experiment, title, grids,
     * headlines). */
    const Json &doc() const { return doc_; }

    /** Record an experiment-specific member in the JSON document
     * (e.g. F13's per-workload sampled-validation rows). */
    void record(const std::string &key, Json value)
    {
        doc_[key] = std::move(value);
    }

  private:
    /** A fetched grid: its runs and the results they rendered. */
    struct Fetched
    {
        const GridRuns *runs;
        sim::ResultGrid grid;
    };

    const Experiment &experiment_;
    std::ostream &out_;
    std::vector<std::string> suite_;
    bool keepGoing_ = false;
    const Schedule *schedule_ = nullptr;
    /** The declared grids (built on first fetch). */
    std::vector<GridSpec> specs_;
    /** Grids run by this context itself (no schedule). */
    std::vector<std::unique_ptr<GridRuns>> ownRuns_;
    std::map<std::string, Fetched> fetched_;
    unsigned failedRuns_ = 0;
    std::vector<std::string> failureSummaries_;
    Json doc_;
};

} // namespace cpe::exp

#endif // CPE_EXP_EXPERIMENT_HH
