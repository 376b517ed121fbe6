/**
 * @file
 * Deterministic process-wide fault injection (see docs/robustness.md).
 *
 * Library code marks every seam where the outside world can fail — a
 * store write, a sink flush, a baseline read — with a named fault
 * point:
 *
 *     if (CPE_FAULT_POINT("store.write"))
 *         throw IoError("chaos: injected fault at store.write");
 *
 * When the injector is disarmed (the default, and the only state
 * production runs ever see) the macro is a single relaxed atomic load
 * and a branch — no lock, no allocation, no measurable cost.  When a
 * chaos schedule is armed (`--chaos seed=N,rate=P[,point=GLOB]` or the
 * `[chaos]` machine keys) each evaluation of a matching point draws a
 * deterministic pseudo-random decision from (seed, point name,
 * per-point hit counter), so a given schedule fires the exact same
 * faults in the exact same places on every run — chaos tests are
 * reproducible, shrinkable, and bisectable.
 *
 * Determinism caveat under concurrency: the per-point counter makes a
 * point's Nth evaluation deterministic, but when parallel sweep
 * workers interleave evaluations of the same point, *which run*
 * observes the Nth evaluation depends on scheduling.  Chaos tests that
 * assert per-run outcomes therefore pin --jobs 1; the invariant tests
 * (every outcome is bit-identical-to-fault-free or a structured
 * error) hold at any worker count.
 *
 * Arm/disarm follow the repo's process-wide-hook idiom (see
 * SweepRunner::setDefaultJobs): configure before a sweep starts, never
 * during one.
 */

#ifndef CPE_UTIL_FAULT_HH
#define CPE_UTIL_FAULT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "util/json.hh"

namespace cpe::util {

/**
 * A parsed chaos schedule: which points may fire, how often, and the
 * seed that makes every decision reproducible.
 */
struct ChaosSpec
{
    std::uint64_t seed = 0;  ///< decision-stream seed
    double rate = 0.0;       ///< firing probability in [0, 1]
    std::string points = "*"; ///< glob over fault-point names

    /** A schedule with rate 0 never fires and is treated as "off". */
    bool enabled() const { return rate > 0.0; }

    /**
     * Parse "seed=N,rate=P[,point=GLOB]" (any key order, all keys
     * optional).  Throws ConfigError on unknown keys, bad numbers, or
     * a rate outside [0, 1].
     */
    static ChaosSpec parse(const std::string &text);

    /** Canonical "seed=N,rate=P,point=GLOB" form (parse round-trips). */
    std::string toString() const;
};

/** Shell-style glob match supporting '*' and '?' (no classes). */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * The process-wide fault-point registry.  All state lives behind one
 * mutex except the armed flag, which fault points read lock-free.
 */
class FaultInjector
{
  public:
    /** Per-point evaluation accounting, for reports and tests. */
    struct PointStats
    {
        std::uint64_t evaluated = 0; ///< times the point was reached armed
        std::uint64_t fired = 0;     ///< times the decision was "fail"
    };

    static FaultInjector &instance();

    /** Lock-free fast path: is any chaos schedule active? */
    static bool armed()
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /** Install a schedule and reset all per-point counters. */
    void arm(const ChaosSpec &spec);

    /** Deactivate injection; counters survive for post-run reports. */
    void disarm();

    /**
     * Decide whether the named point fires this time.  Always counts
     * the evaluation; fires only when the point matches the armed
     * schedule's glob and the deterministic draw lands under rate.
     */
    bool shouldFire(const char *point);

    /** The armed schedule (meaningful only while armed()). */
    ChaosSpec spec() const;

    /** Snapshot of per-point counters since the last arm(). */
    std::map<std::string, PointStats> stats() const;

    /** The counters as {"point": {"evaluated": N, "fired": M}, ...}. */
    Json statsJson() const;

  private:
    FaultInjector() = default;

    static std::atomic<bool> armed_;

    mutable std::mutex mutex_;
    ChaosSpec spec_;
    std::map<std::string, PointStats> points_;
};

} // namespace cpe::util

/**
 * True when the named fault point should fail now.  Compiles to a
 * relaxed load + branch while disarmed.  The name is a stable
 * dotted-path identifier ("subsystem.operation"); docs/robustness.md
 * catalogs every point in the tree.
 */
#define CPE_FAULT_POINT(name)                                          \
    (::cpe::util::FaultInjector::armed() &&                            \
     ::cpe::util::FaultInjector::instance().shouldFire(name))

#endif // CPE_UTIL_FAULT_HH
