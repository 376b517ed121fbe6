#include "obs/metrics.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace cpe::obs {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)), help_(std::move(help)),
      bounds_(std::move(bounds))
{
    if (bounds_.empty())
        panic("histogram '" + name_ + "' needs at least one bucket bound");
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        panic("histogram '" + name_ + "' bounds must be ascending");
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double value)
{
    std::size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i])
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t old = sumBits_.load(std::memory_order_relaxed);
    while (!sumBits_.compare_exchange_weak(
        old, std::bit_cast<std::uint64_t>(
                 std::bit_cast<double>(old) + value),
        std::memory_order_relaxed))
        ;
}

double
Histogram::sum() const
{
    return std::bit_cast<double>(
        sumBits_.load(std::memory_order_relaxed));
}

double
Histogram::quantile(double q) const
{
    q = std::clamp(q, 0.0, 1.0);
    const std::size_t n = bounds_.size();
    std::vector<std::uint64_t> counts(n + 1);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i <= n; ++i) {
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }
    if (!total)
        return 0.0;
    const double target = q * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (cum + static_cast<double>(counts[i]) >= target) {
            const double lower = i ? bounds_[i - 1] : 0.0;
            const double upper = bounds_[i];
            const double fraction =
                counts[i] ? (target - cum) /
                                static_cast<double>(counts[i])
                          : 0.0;
            return lower + (upper - lower) * fraction;
        }
        cum += static_cast<double>(counts[i]);
    }
    // Overflow bucket: all we know is "above the last bound".
    return bounds_.back();
}

void
Histogram::zero()
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumBits_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

std::atomic<bool> MetricsRegistry::armed_{false};

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

Counter *
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    if (it != counters_.end())
        return it->second.get();
    if (gauges_.count(name) || histograms_.count(name))
        panic("metric '" + name +
              "' is already registered as a different kind");
    auto *raw = new Counter(name, help);
    counters_.emplace(name, std::unique_ptr<Counter>(raw));
    return raw;
}

Gauge *
MetricsRegistry::gauge(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it != gauges_.end())
        return it->second.get();
    if (counters_.count(name) || histograms_.count(name))
        panic("metric '" + name +
              "' is already registered as a different kind");
    auto *raw = new Gauge(name, help);
    gauges_.emplace(name, std::unique_ptr<Gauge>(raw));
    return raw;
}

Histogram *
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds,
                           const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it != histograms_.end())
        return it->second.get();
    if (counters_.count(name) || gauges_.count(name))
        panic("metric '" + name +
              "' is already registered as a different kind");
    auto *raw = new Histogram(name, help, std::move(bounds));
    histograms_.emplace(name, std::unique_ptr<Histogram>(raw));
    return raw;
}

Json
MetricsRegistry::snapshotJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Json doc = Json::object();

    Json counters = Json::object();
    for (const auto &[name, counter] : counters_)
        counters[name] =
            Json(static_cast<std::uint64_t>(counter->value()));
    doc["counters"] = std::move(counters);

    Json gauges = Json::object();
    for (const auto &[name, gauge] : gauges_)
        gauges[name] = Json(static_cast<double>(gauge->value()));
    doc["gauges"] = std::move(gauges);

    Json histograms = Json::object();
    for (const auto &[name, histogram] : histograms_) {
        Json entry = Json::object();
        entry["count"] =
            Json(static_cast<std::uint64_t>(histogram->count()));
        entry["sum"] = Json(histogram->sum());
        entry["p50"] = Json(histogram->quantile(0.50));
        entry["p90"] = Json(histogram->quantile(0.90));
        entry["p99"] = Json(histogram->quantile(0.99));
        Json buckets = Json::array();
        const auto &bounds = histogram->bounds();
        for (std::size_t i = 0; i <= bounds.size(); ++i) {
            Json bucket = Json::object();
            if (i < bounds.size())
                bucket["le"] = Json(bounds[i]);
            else
                bucket["le"] = "+inf";
            bucket["n"] = Json(static_cast<std::uint64_t>(
                histogram->bucketCount(i)));
            buckets.push(std::move(bucket));
        }
        entry["buckets"] = std::move(buckets);
        histograms[name] = std::move(entry);
    }
    doc["histograms"] = std::move(histograms);
    return doc;
}

void
MetricsRegistry::zeroAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->zero();
    for (const auto &[name, gauge] : gauges_)
        gauge->zero();
    for (const auto &[name, histogram] : histograms_)
        histogram->zero();
}

std::vector<double>
MetricsRegistry::latencyBucketsUs()
{
    // 50µs .. 10s, roughly 1-2.5-5 per decade: wide enough that a
    // store hit (µs) and a cold simulation (seconds) both resolve.
    return {50.0,     100.0,    250.0,     500.0,     1000.0,
            2500.0,   5000.0,   10000.0,   25000.0,   50000.0,
            100000.0, 250000.0, 500000.0,  1000000.0, 2500000.0,
            5000000.0, 10000000.0};
}

std::vector<double>
MetricsRegistry::wallMsBuckets()
{
    return {1.0,    2.0,    5.0,    10.0,    25.0,
            50.0,   100.0,  250.0,  500.0,   1000.0,
            2500.0, 5000.0, 10000.0, 30000.0, 60000.0};
}

// ---------------------------------------------------------------------------
// PoolMetricsObserver

PoolMetricsObserver::PoolMetricsObserver(const std::string &prefix)
{
    MetricsRegistry &registry = MetricsRegistry::instance();
    queueDepth_ = registry.gauge(prefix + ".queue_depth",
                                 "tasks queued and not yet started");
    busyWorkers_ = registry.gauge(prefix + ".busy_workers",
                                  "workers currently running a task");
    taskWait_ = registry.histogram(
        prefix + ".task_wait_us", MetricsRegistry::latencyBucketsUs(),
        "queue wait per task, microseconds");
    taskExec_ = registry.histogram(
        prefix + ".task_exec_us", MetricsRegistry::latencyBucketsUs(),
        "execution time per task, microseconds");
}

void
PoolMetricsObserver::taskQueued(std::size_t queue_depth)
{
    queueDepth_->set(static_cast<std::int64_t>(queue_depth));
}

void
PoolMetricsObserver::taskStarted(double wait_us,
                                 std::size_t queue_depth,
                                 std::size_t busy_workers)
{
    queueDepth_->set(static_cast<std::int64_t>(queue_depth));
    busyWorkers_->set(static_cast<std::int64_t>(busy_workers));
    taskWait_->observe(wait_us);
}

void
PoolMetricsObserver::taskFinished(double exec_us,
                                  std::size_t busy_workers)
{
    busyWorkers_->set(static_cast<std::int64_t>(busy_workers));
    taskExec_->observe(exec_us);
}

} // namespace cpe::obs
