/**
 * @file
 * The metrics registry (src/obs/metrics.hh): histogram bucket selection
 * and interpolated percentiles, idempotent registration,
 * concurrent-increment exactness (the TSan lane's target), the pinned
 * snapshot schema, the inert-while-disarmed timer, and the version
 * summary `--version` prints.
 */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"

namespace cpe {
namespace {

/** Restore the registry's disarmed default no matter how a test exits
 *  — later tests in this binary depend on the disarmed state. */
struct ArmedScope
{
    explicit ArmedScope(bool armed)
    {
        if (armed)
            obs::MetricsRegistry::arm();
        else
            obs::MetricsRegistry::disarm();
    }
    ~ArmedScope() { obs::MetricsRegistry::disarm(); }
};

TEST(Metrics, HistogramBucketSelectionAndUnits)
{
    obs::MetricsRegistry registry;
    obs::Histogram *h =
        registry.histogram("t.latency_us", {100.0, 1000.0, 10000.0});
    ASSERT_EQ(h->bounds().size(), 3u);

    h->observe(50.0);    // <= 100        -> bucket 0
    h->observe(100.0);   // == bound      -> bucket 0 (le semantics)
    h->observe(101.0);   // first above   -> bucket 1
    h->observe(1000.0);  //               -> bucket 1
    h->observe(9999.0);  //               -> bucket 2
    h->observe(50000.0); // above last    -> overflow bucket

    EXPECT_EQ(h->bucketCount(0), 2u);
    EXPECT_EQ(h->bucketCount(1), 2u);
    EXPECT_EQ(h->bucketCount(2), 1u);
    EXPECT_EQ(h->bucketCount(3), 1u) << "overflow bucket";
    EXPECT_EQ(h->count(), 6u);
    EXPECT_DOUBLE_EQ(h->sum(), 50.0 + 100.0 + 101.0 + 1000.0 + 9999.0 +
                                   50000.0);
}

TEST(Metrics, HistogramQuantilesInterpolateAndClamp)
{
    obs::MetricsRegistry registry;
    obs::Histogram *h = registry.histogram("t.q", {100.0, 200.0});

    EXPECT_EQ(h->quantile(0.5), 0.0) << "empty histogram";

    // 10 observations in (0,100], none above: the median lands mid
    // bucket, and every quantile stays within the first bound.
    for (int i = 0; i < 10; ++i)
        h->observe(42.0);
    EXPECT_GT(h->quantile(0.5), 0.0);
    EXPECT_LE(h->quantile(0.5), 100.0);
    EXPECT_LE(h->quantile(0.99), 100.0);

    // Pile everything above the last bound: quantiles clamp to it
    // rather than inventing values past the histogram's range.
    obs::Histogram *over = registry.histogram("t.q_over", {100.0, 200.0});
    for (int i = 0; i < 10; ++i)
        over->observe(5000.0);
    EXPECT_DOUBLE_EQ(over->quantile(0.5), 200.0);
    EXPECT_DOUBLE_EQ(over->quantile(0.99), 200.0);
}

TEST(Metrics, RegistrationIsIdempotentAndZeroKeepsPointers)
{
    obs::MetricsRegistry registry;
    obs::Counter *a = registry.counter("t.count", "help");
    obs::Counter *b = registry.counter("t.count");
    EXPECT_EQ(a, b) << "register-or-fetch must return stable pointers";
    a->inc(3);
    EXPECT_EQ(b->value(), 3u);

    obs::Gauge *g = registry.gauge("t.gauge");
    g->set(7);
    g->add(-2);
    EXPECT_EQ(g->value(), 5);

    registry.zeroAll();
    EXPECT_EQ(a->value(), 0u);
    EXPECT_EQ(g->value(), 0);
    EXPECT_EQ(registry.counter("t.count"), a) << "zeroing never deletes";
}

TEST(Metrics, ConcurrentIncrementsAreExact)
{
    // The TSan lane's target: many threads hammering one counter, one
    // gauge, and one histogram must lose no update — and the histogram
    // invariant sum(buckets) == count() must hold at rest.
    obs::MetricsRegistry registry;
    obs::Counter *counter = registry.counter("t.concurrent");
    obs::Gauge *gauge = registry.gauge("t.concurrent_gauge");
    obs::Histogram *h =
        registry.histogram("t.concurrent_hist", {10.0, 100.0, 1000.0});

    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kPerThread; ++i) {
                counter->inc();
                gauge->add(1);
                gauge->add(-1);
                h->observe(static_cast<double>((t * kPerThread + i) %
                                               2000));
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    const std::uint64_t total =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    EXPECT_EQ(counter->value(), total);
    EXPECT_EQ(gauge->value(), 0);
    EXPECT_EQ(h->count(), total);
    std::uint64_t in_buckets = 0;
    for (std::size_t i = 0; i <= h->bounds().size(); ++i)
        in_buckets += h->bucketCount(i);
    EXPECT_EQ(in_buckets, total);
    EXPECT_GT(h->sum(), 0.0);
}

TEST(Metrics, SnapshotJsonIsSortedAndCarriesThePinnedSchema)
{
    obs::MetricsRegistry registry;
    registry.counter("z.last")->inc(1);
    registry.counter("a.first")->inc(2);
    registry.gauge("m.middle")->set(-3);
    obs::Histogram *h = registry.histogram("h.lat", {100.0});
    h->observe(50.0);
    h->observe(500.0);

    Json snapshot = registry.snapshotJson();
    const Json &counters = snapshot.at("counters", "snapshot");
    ASSERT_EQ(counters.members().size(), 2u);
    EXPECT_EQ(counters.members()[0].first, "a.first") << "sorted";
    EXPECT_EQ(counters.members()[1].first, "z.last");
    EXPECT_EQ(counters.members()[0].second.asNumber(), 2.0);

    EXPECT_EQ(snapshot.at("gauges", "snapshot")
                  .at("m.middle", "gauge")
                  .asNumber(),
              -3.0);

    const Json &hist =
        snapshot.at("histograms", "snapshot").at("h.lat", "histogram");
    EXPECT_EQ(hist.at("count", "hist").asNumber(), 2.0);
    EXPECT_EQ(hist.at("sum", "hist").asNumber(), 550.0);
    EXPECT_TRUE(hist.find("p50"));
    EXPECT_TRUE(hist.find("p90"));
    EXPECT_TRUE(hist.find("p99"));
    const Json &buckets = hist.at("buckets", "hist");
    ASSERT_EQ(buckets.items().size(), 2u);
    EXPECT_EQ(buckets.items()[0].at("le", "bucket").asNumber(),
              100.0);
    EXPECT_EQ(buckets.items()[0].at("n", "bucket").asNumber(), 1.0);
    EXPECT_EQ(buckets.items()[1].at("le", "bucket").asString(),
              "+inf");
    EXPECT_EQ(buckets.items()[1].at("n", "bucket").asNumber(), 1.0);
}

TEST(Metrics, ScopedTimerIsInertWhileDisarmed)
{
    ArmedScope disarmed(false);
    obs::MetricsRegistry registry;
    obs::Histogram *h = registry.histogram("t.timer", {100.0});
    {
        obs::ScopedTimerUs timer(h);
        EXPECT_EQ(timer.elapsedUs(), 0.0) << "no clock while disarmed";
    }
    EXPECT_EQ(h->count(), 0u) << "no observation while disarmed";

    ArmedScope armed(true);
    {
        obs::ScopedTimerUs timer(h);
    }
    EXPECT_EQ(h->count(), 1u) << "armed timers observe on destruction";
}

TEST(Metrics, VersionSummaryNamesEveryPinnedSchema)
{
    const std::string summary = sim::versionSummary();
    EXPECT_NE(summary.find("simulator "), std::string::npos);
    EXPECT_NE(summary.find("cpet trace "), std::string::npos);
    EXPECT_NE(summary.find("store schema "), std::string::npos);
    EXPECT_NE(summary.find(sim::simulatorVersion()), std::string::npos);
    // The store schema key must fold in the simulator version: a
    // simulator change invalidates every cached result.
    EXPECT_NE(summary.find(std::string("sim-") + sim::simulatorVersion()),
              std::string::npos);
}

} // namespace
} // namespace cpe
