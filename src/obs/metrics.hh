/**
 * @file
 * The process-wide metrics registry (docs/observability.md, "Metrics
 * registry").
 *
 * MetricsRegistry holds named counters, gauges, and fixed-bucket
 * latency histograms.  Metric objects are registered once (by name,
 * idempotently) and then updated with relaxed atomics — no lock, no
 * allocation on the hot path — so subsystems keep them up to date
 * unconditionally.  What IS gated behind the registry's armed flag
 * (the FaultInjector::armed idiom: one relaxed load + branch while
 * disarmed) is everything that costs more than an atomic add: reading
 * clocks for latency histograms and the thread-pool observer.  With
 * the registry disarmed — the default, and the only state cpe_eval's
 * deterministic runs ever see — instrumented code paths are
 * byte-identical in behavior to uninstrumented ones.
 *
 * Snapshots: snapshotJson() renders every metric sorted by name, and
 * zeroAll() resets values (never registrations) so tests get exact
 * counts.
 */

#ifndef CPE_OBS_METRICS_HH
#define CPE_OBS_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"
#include "util/thread_pool.hh"

namespace cpe::obs {

/** A monotonically increasing count (relaxed atomic; always cheap). */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void zero() { value_.store(0, std::memory_order_relaxed); }

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

  private:
    friend class MetricsRegistry;
    Counter(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {
    }

    std::string name_;
    std::string help_;
    std::atomic<std::uint64_t> value_{0};
};

/** A value that goes up and down (queue depth, resident bytes). */
class Gauge
{
  public:
    void set(std::int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    void add(std::int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void zero() { value_.store(0, std::memory_order_relaxed); }

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

  private:
    friend class MetricsRegistry;
    Gauge(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {
    }

    std::string name_;
    std::string help_;
    std::atomic<std::int64_t> value_{0};
};

/**
 * A fixed-bucket histogram: per-bucket relaxed-atomic counts plus a
 * running sum, from which count/sum/p50/p90/p99 are derived.  Bounds
 * are ascending bucket upper edges; observations above the last bound
 * land in an implicit overflow bucket.  quantile() interpolates
 * linearly inside the selected bucket (overflow clamps to the last
 * finite bound), which is exact enough for latency percentiles and
 * keeps observe() at two atomic adds.
 */
class Histogram
{
  public:
    void observe(double value);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const;

    /** Interpolated quantile for @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

    const std::vector<double> &bounds() const { return bounds_; }

    /** Count in bucket @p i (bounds().size() = the overflow bucket). */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    void zero();

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

  private:
    friend class MetricsRegistry;
    Histogram(std::string name, std::string help,
              std::vector<double> bounds);

    std::string name_;
    std::string help_;
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    /** Bit pattern of a double, CAS-added (atomic<double>::fetch_add
     *  is not portable across the toolchains this builds on). */
    std::atomic<std::uint64_t> sumBits_{0};
};

/**
 * The named-metric registry.  The process-wide instance() is what
 * every instrumented subsystem registers into; separate instances are
 * constructible for unit and golden-schema tests.  Registration is
 * idempotent by name and returns stable pointers (metrics are never
 * deleted), so call sites cache the pointer and update lock-free.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    static MetricsRegistry &instance();

    /**
     * Lock-free fast path gating the expensive instrumentation (clock
     * reads, pool observers, exporters).  Plain counter/gauge updates
     * are NOT gated — they are cheap enough to always stay correct.
     */
    static bool armed()
    {
        return armed_.load(std::memory_order_relaxed);
    }

    static void arm() { armed_.store(true, std::memory_order_relaxed); }
    static void disarm()
    {
        armed_.store(false, std::memory_order_relaxed);
    }

    /** Register-or-fetch; panics if @p name is already a different
     *  metric kind (a programming error, not an input error). */
    Counter *counter(const std::string &name,
                     const std::string &help = "");
    Gauge *gauge(const std::string &name, const std::string &help = "");
    Histogram *histogram(const std::string &name,
                         std::vector<double> bounds,
                         const std::string &help = "");

    /**
     * Every metric, sorted by name, as
     * {"counters":{..},"gauges":{..},"histograms":{name:
     *  {"count","sum","p50","p90","p99","buckets":[{"le","n"},..]}}}.
     * The schema is pinned by tests/test_metrics.cc.
     */
    Json snapshotJson() const;

    /** Reset every value; registrations and pointers survive. */
    void zeroAll();

    /** Bucket upper bounds shared by the latency histograms (µs). */
    static std::vector<double> latencyBucketsUs();

    /** Bucket upper bounds for run wall-time histograms (ms). */
    static std::vector<double> wallMsBuckets();

  private:
    static std::atomic<bool> armed_;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Time a scope into @p histogram — but only while the registry is
 * armed, so disarmed paths never read a clock.  Constructed
 * unconditionally at call sites; the armed check is the constructor.
 */
class ScopedTimerUs
{
  public:
    explicit ScopedTimerUs(Histogram *histogram)
        : histogram_(MetricsRegistry::armed() ? histogram : nullptr)
    {
        if (histogram_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimerUs()
    {
        if (histogram_)
            histogram_->observe(elapsedUs());
    }

    ScopedTimerUs(const ScopedTimerUs &) = delete;
    ScopedTimerUs &operator=(const ScopedTimerUs &) = delete;

    /** Microseconds since construction (0 when inactive). */
    double elapsedUs() const
    {
        if (!histogram_)
            return 0.0;
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    Histogram *histogram_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * util::ThreadPool::Observer publishing pool health under
 * "<prefix>.queue_depth", ".busy_workers", ".task_wait_us", and
 * ".task_exec_us".  Install only while the registry is armed — the
 * pool reads clocks per task once an observer is set.
 */
class PoolMetricsObserver final : public util::ThreadPool::Observer
{
  public:
    explicit PoolMetricsObserver(const std::string &prefix);

    void taskQueued(std::size_t queue_depth) override;
    void taskStarted(double wait_us, std::size_t queue_depth,
                     std::size_t busy_workers) override;
    void taskFinished(double exec_us,
                      std::size_t busy_workers) override;

  private:
    Gauge *queueDepth_;
    Gauge *busyWorkers_;
    Histogram *taskWait_;
    Histogram *taskExec_;
};

} // namespace cpe::obs

#endif // CPE_OBS_METRICS_HH
