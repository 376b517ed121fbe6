/**
 * @file
 * The result memo: completed SimResults keyed by the machine that
 * produced them, so a run whose machine was already simulated returns
 * the recorded result instead of simulating again.  SweepRunner
 * consults the installed store (setActive) for every run; cpe_eval
 * installs one per invocation — in memory, plus an entry directory
 * with --store DIR so later invocations (a resumed sweep, a CI rerun)
 * reuse it too.
 *
 * Key: FNV-1a over toMachineFile(config) with the display label
 * cleared, plus the simulator, CPET trace, and store schema versions
 * (version()).  The machine text carries the workload, its options,
 * and every timing knob; the label only names a grid column, so two
 * experiments that run one machine under different labels share an
 * entry.  A modeling or format change bumps a version and invalidates
 * every old entry by construction.
 *
 * Entries on disk are single-line JSON files `<key>.json` embedding
 * the byte-exact resultToJson rendering, written tmp + fsync + rename
 * + directory fsync: an entry is either complete or absent, never
 * torn, so concurrent processes can share one directory.
 *
 * Concurrency: fetchOrCompute() is single-flight — N concurrent
 * callers of one key execute the simulation once and share the
 * result; a compute failure propagates to every waiter and is never
 * memoized, so a later request retries.
 *
 * Failure policy (docs/robustness.md): a corrupt, truncated, or
 * version-mismatched entry is a miss (warn, re-execute, overwrite),
 * and an insert failure costs durability for that one result, never
 * the result itself.  Chaos seams: "store.read" makes an entry read
 * fail like a corrupt entry, "store.write" makes an insert fail like a
 * full disk.
 */

#ifndef CPE_SIM_RESULT_STORE_HH
#define CPE_SIM_RESULT_STORE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>

#include "sim/simulator.hh"
#include "util/json.hh"

namespace cpe::sim {

/** Full-fidelity SimResult <-> JSON round trip (store entries). */
Json resultToJson(const SimResult &result);
SimResult resultFromJson(const Json &doc);

/** Single-flight memo table of completed SimResults, optionally on
 *  disk. */
class ResultStore
{
  public:
    /** Cumulative accounting, for the cpe_eval summary and the tests. */
    struct Stats
    {
        std::uint64_t fetches = 0;     ///< fetchOrCompute calls
        std::uint64_t computes = 0;    ///< compute callbacks executed
        std::uint64_t hits = 0;        ///< lookups answered
        std::uint64_t diskHits = 0;    ///< ...of which read from disk
        std::uint64_t misses = 0;      ///< lookups that found nothing
        std::uint64_t corrupt = 0;     ///< unreadable entries skipped
        std::uint64_t inserts = 0;     ///< results recorded
        std::uint64_t insertFailures = 0; ///< disk writes that failed
    };

    /**
     * @param dir entry directory; empty keeps the store in memory
     * only.  A non-empty @p dir is created here, and an IoError is
     * thrown when that is impossible; tmp files a crashed writer left
     * behind are swept.
     */
    explicit ResultStore(std::string dir = std::string());

    /**
     * The store schema + simulator + CPET versions folded into every
     * key: bump "store-N" when the entry format changes, and
     * simulatorVersion() when a modeling change makes old results
     * stale (tests/golden/sim_version.json enforces the latter).
     */
    static std::string version();

    /**
     * The memo key of @p config: FNV-1a of its machine-file text with
     * the label cleared, plus @p store_version, as 16 hex digits.
     * Panics if a cache field the machine text leaves out (L1I and L2
     * line size, any level's replacement policy or seed) is off its
     * default: the key could not tell that machine from the default.
     */
    static std::string keyFor(const SimConfig &config,
                              const std::string &store_version = version());

    /**
     * Load the result for @p key into @p out: memory first, then the
     * entry directory.  Unreadable, torn, or key/version-mismatched
     * entries count as misses (warned; the next insert overwrites).
     */
    bool lookup(const std::string &key, SimResult &out);

    /**
     * Record @p result under @p key: in memory, then durably on disk
     * when the store has a directory (tmp + fsync + rename).  Throws
     * IoError when the disk write fails; fetchOrCompute downgrades
     * that to a warning because the result must still reach the
     * caller.
     */
    void insert(const std::string &key, const SimResult &result);

    /**
     * Return the recorded result for @p key, or run @p compute exactly
     * once — even under N concurrent callers of the same key — record
     * its result, and hand it to every waiter.  A @p compute failure
     * propagates to every waiter of this flight and is not memoized.
     * @p source, when given, reports where the result came from:
     * "store", "sim", or "shared".
     */
    SimResult fetchOrCompute(const std::string &key,
                             const std::function<SimResult()> &compute,
                             std::string *source = nullptr);

    /** Forget every entry, in memory and on disk. */
    void clear();

    /** Complete entries in the entry directory (0 in memory only). */
    std::size_t entries() const;

    /** Where @p key's entry lives on disk. */
    std::string entryPath(const std::string &key) const;

    Stats stats() const;

    const std::string &dir() const { return dir_; }

    /**
     * The process-wide store SweepRunner consults (nullptr = every run
     * simulates).  Install before a sweep starts, never during one; the
     * store must outlive every sweep run while installed.
     */
    static void setActive(ResultStore *store);
    static ResultStore *active();

  private:
    /** Read @p key's entry file; false on absence or corruption. */
    bool readEntry(const std::string &key, SimResult &out);

    std::string dir_;

    mutable std::mutex mutex_;
    std::map<std::string, SimResult> memo_;
    std::map<std::string, std::shared_future<SimResult>> inFlight_;
    Stats stats_;
};

/**
 * One line naming the three cache-invalidation inputs — simulator,
 * CPET trace, and store schema versions — for `--version` output and
 * stale-store debugging.
 */
std::string versionSummary();

} // namespace cpe::sim

#endif // CPE_SIM_RESULT_STORE_HH
