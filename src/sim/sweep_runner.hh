/**
 * @file
 * Parallel sweep execution: fan a vector of independent SimConfigs out
 * across a util::ThreadPool and hand the results back in submission
 * order.
 *
 * Determinism contract (see DESIGN.md "Sweep runner"): every
 * simulate() call owns its entire machine — workload program, golden
 * executor, core, hierarchy, StatGroups, and RNGs (seeded from the
 * config, never from global state) — so a run's numbers are a pure
 * function of its SimConfig.  The runner only changes *when* runs
 * execute, never *what* they compute, and it returns results indexed
 * exactly like the input vector; a ResultGrid filled from them is
 * byte-identical to a serial loop's.
 *
 * Fault-isolation contract: one bad point must never cost the whole
 * grid.  runOutcomes() captures each run's failure — a thrown SimError
 * or any other exception — into its RunOutcome instead of letting it
 * escape, retries transient failures per its util::RetryPolicy
 * (IoError and unknown exceptions; two attempts and no backoff by
 * default), and always completes every run.  run() keeps the original
 * throwing contract for callers that want all-or-nothing, built on the
 * same machinery.
 *
 * Memo contract: when a ResultStore is installed
 * (ResultStore::setActive), a run whose machine the store already
 * holds returns the recorded result without executing (attempts = 0,
 * configTag restamped from the requesting config), concurrent runs of
 * one machine simulate once, and every fresh success is recorded —
 * see result_store.hh.  Runs with a trace sink always simulate.
 */

#ifndef CPE_SIM_SWEEP_RUNNER_HH
#define CPE_SIM_SWEEP_RUNNER_HH

#include <exception>
#include <vector>

#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/retry.hh"

namespace cpe::sim {

/**
 * What happened to one run of a sweep: either a SimResult or a
 * structured description of the failure, plus execution metadata
 * (attempt count, wall-clock time).
 */
struct RunOutcome
{
    /** Identity of the run, valid in both outcomes. */
    std::string workload;
    std::string configTag;

    /** The measurement; meaningful only when ok(). */
    SimResult result;
    bool hasResult = false;

    /** Failure description, empty/null when ok(). */
    std::string errorKind;     ///< SimError::kind(), or "exception"
    std::string errorMessage;
    Json errorDetails;         ///< ProgressError snapshot, else null

    /** For rethrowing the original exception (run()'s contract). */
    std::exception_ptr exception;

    /** Execution metadata. */
    unsigned attempts = 0;     ///< simulate() calls (0: from the store)
    double wallMs = 0.0;       ///< wall-clock time of the final attempt

    bool ok() const { return hasResult; }

    /**
     * The JSON "error" record the results documents embed for a
     * failed run: workload, config, kind, message, attempts, wall_ms,
     * and — for progress failures — the pipeline snapshot.
     */
    Json errorJson() const;
};

/**
 * One run of a schedule (SweepRunner::runSchedule): its outcome and
 * the trace-cache work charged to it.
 */
struct ScheduledRun
{
    RunOutcome outcome;
    /**
     * The cache counters this run moved, as a one-at-a-time sweep in
     * schedule order would have moved them: a stream's capture
     * belongs to the first run in that order that acquires it, every
     * other acquisition is a replay, and a run the result store
     * answers moves nothing.
     */
    TraceCache::Stats cacheWork;
};

/** Runs batches of independent simulations, possibly concurrently. */
class SweepRunner
{
  public:
    /**
     * @param jobs Worker count; 0 means "decide for me" (defaultJobs()).
     *             1 runs everything inline on the calling thread.
     */
    explicit SweepRunner(unsigned jobs = 0);

    /** The resolved worker count this runner will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run every config and return the results in input order.  If any
     * run fails, the exception of the lowest-indexed failing config is
     * rethrown after all runs finish (workers are never abandoned).
     */
    std::vector<SimResult> run(const std::vector<SimConfig> &configs) const;

    /**
     * Fault-isolating variant: run every config and return one
     * RunOutcome per config in input order, never throwing for a
     * per-run failure.  Runs that fail with a transient kind (IoError,
     * unknown exceptions) are retried per retryPolicy(); deterministic
     * failures (ConfigError, WorkloadError, ProgressError) are not,
     * since a pure function of the config will fail identically again.
     */
    std::vector<RunOutcome>
    runOutcomes(const std::vector<SimConfig> &configs) const;

    /**
     * Run one config through the same store-consult / fault-capture /
     * retry machinery as runOutcomes(), inline on the calling thread —
     * for callers that schedule runs themselves.
     */
    RunOutcome runOne(const SimConfig &config) const;

    /**
     * Run the runs of many grids as one pool.  @p configs lists them
     * in the order a one-at-a-time sweep would run them.  With more
     * than one worker the pool goes in three waves, each finished
     * before the next starts:
     *   1. every distinct trace-cache stream a valid config replays is
     *      prepared (TraceCache::prepare), in order of first use;
     *   2. the first run of each machine, longest stream first;
     *   3. the runs that repeat a machine of wave 2, which the
     *      installed ResultStore answers; the repeats of one machine
     *      go in input order, one at a time.  Traced runs, and every
     *      run when no store is installed, belong to wave 2: nothing
     *      answers them.
     * With one worker every run goes inline in @p configs order, so
     * traced runs claim their run ids in that order.  The outcomes
     * are what runOutcomes() would give, in input order.
     */
    std::vector<ScheduledRun>
    runSchedule(const std::vector<SimConfig> &configs) const;

    /** The retry policy this runner applies to transient failures. */
    const util::RetryPolicy &retryPolicy() const { return policy_; }
    void setRetryPolicy(const util::RetryPolicy &policy)
    {
        policy_ = policy;
    }

    /** Convenience: run() then fold the results into a ResultGrid. */
    ResultGrid runGrid(const std::vector<SimConfig> &configs,
                       const std::string &value_name = "IPC") const;

    /**
     * The job count used when a runner is built with jobs == 0:
     * the last setDefaultJobs() value if set, else the CPESIM_JOBS
     * environment variable, else one per hardware thread.
     */
    static unsigned defaultJobs();

    /**
     * Process-wide override of defaultJobs(), used by the harnesses'
     * --jobs flag (0 clears the override).  Call before spawning
     * sweeps, not during one.
     */
    static void setDefaultJobs(unsigned jobs);

    /** The setDefaultJobs() override in force (0 = none). */
    static unsigned defaultJobsOverride();

    /**
     * The retry policy new runners start from: the last
     * setDefaultRetryPolicy() value, else the built-in defaults.
     * Same hook idiom as setDefaultJobs — used by the driver's
     * --retries / --retry-backoff-ms flags before a sweep starts.
     */
    static util::RetryPolicy defaultRetryPolicy();
    static void setDefaultRetryPolicy(const util::RetryPolicy &policy);

  private:
    unsigned jobs_;
    util::RetryPolicy policy_;
};

} // namespace cpe::sim

#endif // CPE_SIM_SWEEP_RUNNER_HH
