/**
 * @file
 * The execute-once, replay-many trace cache behind sweep grids.
 *
 * Every timing variant of the same (workload, functional-config) pair
 * consumes an identical committed instruction stream, so an N-point
 * sweep only needs the functional model once per distinct pair.  The
 * TraceCache memoizes func::CapturedTrace objects under a key derived
 * from the workload name, every functional knob (scale, seed, OS
 * level), and the trace format version; SweepRunner grids consult it
 * through SimConfig::traceCache, so the first run of each group
 * captures and every other run — serial or on a concurrent sweep
 * worker — replays the shared immutable capture.
 *
 * Concurrency: acquisition is single-flight.  When two parallel runs
 * want the same uncached workload, exactly one executes the functional
 * model while the other blocks on a shared future; both then replay
 * the same capture (tests/test_trace_cache.cc proves one capture).
 *
 * A scheduler may also prepare() a stream before any run wants it, to
 * learn its length.  The first acquire() after that claims the prepared
 * capture instead of counting a replay, so the counters end as if that
 * run had captured the stream itself.
 *
 * On-disk spill (cpe_eval --trace-cache DIR): captures are also
 * persisted as CPET files named by key hash, and a later process'
 * cache miss loads from disk instead of re-executing — repeated
 * cpe_eval invocations across CI runs skip functional execution
 * entirely.  A corrupt or stale spill entry falls back to live
 * capture with a warn(); spill I/O failures never fail a run.
 * Spill writes are crash-safe: the tmp file (and the directory after
 * the rename) are fsync'd, so a spill entry is either complete on
 * disk or absent, and construction sweeps orphaned *.tmp.* files a
 * crashed writer left behind.
 *
 * Circuit breaker (see docs/robustness.md): consecutive spill I/O
 * failures trip the cache into a degraded memory-only mode — one
 * warning, no further spill reads or writes — instead of paying and
 * logging a doomed I/O attempt per run on a dead disk.  A spill
 * success before the trip resets the count.
 */

#ifndef CPE_SIM_TRACE_CACHE_HH
#define CPE_SIM_TRACE_CACHE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "func/captured_trace.hh"
#include "sim/config.hh"

namespace cpe::sim {

/** Shared, thread-safe cache of captured functional traces. */
class TraceCache
{
  public:
    /** Cumulative accounting, for the per-grid summaries. */
    struct Stats
    {
        std::uint64_t captures = 0;   ///< live functional executions
        std::uint64_t replays = 0;    ///< served from a resident capture
        std::uint64_t diskLoads = 0;  ///< served from the on-disk spill
        std::uint64_t diskWrites = 0; ///< spill files written
        std::uint64_t evictions = 0;  ///< captures dropped by the LRU
        /** Functional instructions executed by captures. */
        std::uint64_t instsCaptured = 0;
        /** Functional instructions replays did NOT re-execute. */
        std::uint64_t instsSkipped = 0;
        /** Spill read/write attempts that failed (I/O or corrupt). */
        std::uint64_t spillFailures = 0;

        /** Field-wise sums, for moving work between snapshots. */
        Stats &operator+=(const Stats &other);
        Stats &operator-=(const Stats &other);
        friend Stats operator+(Stats a, const Stats &b) { return a += b; }
        friend Stats operator-(Stats a, const Stats &b) { return a -= b; }
    };

    /** Consecutive spill failures that trip the circuit breaker. */
    static constexpr unsigned SpillBreakerThreshold = 3;

    /** The resident-set bound a default-constructed cache uses. */
    static constexpr std::size_t DefaultMaxResidentBytes =
        512ull * 1024 * 1024;

    /**
     * @param spill_dir directory for on-disk CPET spill ("" = memory
     *        only).  Created on first write.
     * @param max_resident_bytes LRU bound on resident capture bytes;
     *        evicting an entry only drops the cache's reference, so
     *        in-flight replays of it stay valid.
     */
    explicit TraceCache(
        std::string spill_dir = "",
        std::size_t max_resident_bytes = DefaultMaxResidentBytes);

    /**
     * Get the committed-path trace for @p config's functional half,
     * capturing (or spill-loading) it on first use.  A capture for a
     * sampled config also builds that config's warm-command index;
     * full-detail runs never read one.  Safe to call from any number
     * of sweep workers; a capture failure (e.g. the executor's
     * ProgressError fuse) propagates to every waiter and is not
     * cached, so a later acquire retries.
     */
    std::shared_ptr<const func::CapturedTrace>
    acquire(const SimConfig &config);

    /**
     * Capture (or spill-load) @p config's stream ahead of the runs
     * that will replay it, and build its warm-command index when
     * @p config samples.  A stream already resident or in flight is
     * only waited for.  A fresh production is counted like any
     * capture, but on the share (threadStats()) of the first acquire()
     * that follows, which counts no replay: the counters end as if
     * that run had captured the stream.  A capture failure propagates
     * and is not cached, exactly as in acquire().
     * @return the capture, whose size() tells a scheduler how long the
     * stream's runs are.
     */
    std::shared_ptr<const func::CapturedTrace>
    prepare(const SimConfig &config);

    /**
     * The calling thread's share of every cache's counters: the work
     * its own acquire() calls did or claimed.  A scheduler that runs
     * one simulation at a time per thread charges cache work to a run
     * by differencing this around it.
     */
    static Stats threadStats();

    /**
     * The cache key of @p config: workload name + every functional
     * knob + the CPET format version.  Timing knobs (ports, buffers,
     * cache geometry, widths) are deliberately absent — they do not
     * change the committed path — while any functional knob must
     * never share a trace.
     */
    static std::string key(const SimConfig &config);

    /** Where @p config's spill entry lives ("" without a spill dir). */
    std::string spillPath(const SimConfig &config) const;

    /** Snapshot of the accounting counters. */
    Stats stats() const;

    /** Resident captures (excludes in-flight acquisitions). */
    std::size_t residentCount() const;

    /** Has the spill circuit breaker tripped to memory-only mode? */
    bool degraded() const;

    const std::string &spillDir() const { return spillDir_; }

  private:
    using TracePtr = std::shared_ptr<const func::CapturedTrace>;

    struct Entry
    {
        std::shared_future<TracePtr> future;
        /** memoryBytes() once ready; 0 while the capture is in
         *  flight (in-flight entries are never evicted). */
        std::size_t bytes = 0;
        std::uint64_t lastUse = 0;
        /** A prepare()d production no acquire() has claimed yet:
         *  the counts its first run's share takes over. */
        std::optional<Stats> unclaimed;
    };

    /** acquire() and prepare(): find or produce @p config's entry. */
    TracePtr obtain(const SimConfig &config, bool prepare);

    /** Capture live or load from spill, counting into @p made as well;
     *  runs outside the lock. */
    TracePtr produce(const SimConfig &config, const std::string &key,
                     Stats &made);

    /** Add @p n to one counter, here and in @p share; callers hold
     *  mutex_. */
    void countLocked(Stats &share, std::uint64_t Stats::*field,
                     std::uint64_t n = 1);

    /** Drop least-recently-used entries beyond the byte bound. */
    void evictLocked();

    /** Remove *.tmp.* leftovers a crashed spill writer abandoned. */
    void sweepOrphanedTmpFiles();

    /** Circuit-breaker bookkeeping for one spill attempt's outcome. */
    void noteSpillSuccess();
    void noteSpillFailure(Stats &made);

    /** Is spill I/O currently worth attempting? */
    bool spillUsable() const;

    std::string spillDir_;
    std::size_t maxResidentBytes_;

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    std::size_t residentBytes_ = 0;
    std::uint64_t useClock_ = 0;
    Stats stats_;
    unsigned consecutiveSpillFailures_ = 0;
    bool degraded_ = false;
};

} // namespace cpe::sim

#endif // CPE_SIM_TRACE_CACHE_HH
