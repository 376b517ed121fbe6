/**
 * @file
 * The public entry point: build a workload, wire up the machine, run
 * it, and return the measured results.  Everything the examples,
 * tests, and bench harnesses do goes through this class.
 */

#ifndef CPE_SIM_SIMULATOR_HH
#define CPE_SIM_SIMULATOR_HH

#include <cstdint>
#include <string>

#include "sim/config.hh"

namespace cpe::sim {

/** Measurements from one simulation run. */
struct SimResult
{
    std::string workload;
    std::string configTag;

    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0.0;

    // Key derived metrics for the evaluation tables.
    double portUtilization = 0.0;   ///< data-port busy fraction
    double l1dMissRate = 0.0;
    double lineBufferHitRate = 0.0; ///< loads hit in line buffers
    double sbStoresPerDrain = 0.0;  ///< store-combining ratio
    double loadPortFraction = 0.0;  ///< loads that needed a port
    double condAccuracy = 0.0;      ///< branch direction accuracy
    std::uint64_t storeCommitStalls = 0;
    std::uint64_t modeSwitches = 0;

    /** Full gem5-style stats listing. */
    std::string statsDump;

    /**
     * The same statistics tree as one stable-keyed JSON document
     * ({"core": {...}, "mem": {...}}, groups nested, registration
     * order preserved).
     */
    std::string statsJson;

    /**
     * Interval timeseries ({"interval_cycles": N, "intervals": [...]})
     * when SimConfig::obs.sampleCycles is nonzero; empty otherwise.
     * Per-interval scalar deltas sum to the final stats above.
     */
    std::string timeseriesJson;

    /**
     * Stall-attribution profile ({"top": N, "totals": {...}, "pcs":
     * [...], "sets": {...}}) when SimConfig::obs.profileTop is
     * nonzero; empty otherwise.  The per-PC counters sum exactly to
     * the aggregate stats above (tests/test_obs_profile.cc).
     */
    std::string profileJson;

    // ---- Sampled-mode results (SimConfig::sample.enabled()) ----

    /** Whether this run used SMARTS-style sampling.  When true, ipc
     *  is the mean over measurement intervals, cycles/insts cover the
     *  measurement union only, and the stats above describe the union
     *  of the measurement intervals. */
    bool sampled = false;
    /** Measurement intervals that contributed to the estimate. */
    std::uint64_t measuredIntervals = 0;
    /** Student-t confidence interval on the mean interval IPC. */
    double ipcCiLow = 0.0;
    double ipcCiHigh = 0.0;
    double ipcCiHalf = 0.0;
    /** 100 * ipcCiHalf / ipc (the headline error bound). */
    double ipcRelErrPct = 0.0;
    /** Instructions fast-forwarded (warm-only, never simulated). */
    std::uint64_t ffInsts = 0;
    /** {"mode": ..., "confidence": ..., "intervals": N, "mean_ipc":
     *  ..., "ci_low"/"ci_high"/"ci_half_width": ..., "ff_insts": ...}
     *  — the sampling summary, for the JSON results documents. */
    std::string sampleJson;
};

/** One-shot simulator: construct with a config, call run(). */
class Simulator
{
  public:
    explicit Simulator(SimConfig config);

    /**
     * Execute to completion and collect results.  Throws ConfigError
     * when the configuration fails SimConfig::validate(),
     * WorkloadError for unknown kernels, and ProgressError (with a
     * pipeline snapshot) when a forward-progress watchdog trips; see
     * util/error.hh for the recovery contract.
     */
    SimResult run();

  private:
    SimConfig config_;
};

/**
 * The simulator's behavioral version: bump when a modeling change
 * makes previously computed results stale (one of the two inputs to
 * result-store cache invalidation, next to the store schema version —
 * see sim::ResultStore::version()).
 */
const char *simulatorVersion();

/** Convenience: build, run, and return in one call. */
SimResult simulate(const SimConfig &config);

/**
 * Convenience used throughout the benches: run @p workload under
 * @p tech with otherwise-default parameters.
 */
SimResult simulate(const std::string &workload,
                   const core::PortTechConfig &tech,
                   unsigned os_level = 0);

} // namespace cpe::sim

#endif // CPE_SIM_SIMULATOR_HH
