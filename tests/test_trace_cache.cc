/**
 * @file
 * CapturedTrace and TraceCache tests.  The capture: records written in
 * place into one growing block, and the one-pass warm index against a
 * record-by-record reference scan.  The cache: keying (timing-only
 * variants share a capture, any functional difference never does),
 * single capture per group — including under concurrent acquisition —
 * LRU eviction that keeps in-flight replays valid, and failed captures
 * never cached.
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "func/captured_trace.hh"
#include "func/executor.hh"
#include "sim/trace_cache.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"
#include "workload/registry.hh"

#include "expect_error.hh"

namespace cpe::sim {
namespace {

SimConfig
cacheConfig(const std::string &workload)
{
    SimConfig config = SimConfig::defaults();
    config.workloadName = workload;
    return config;
}

/** Every DynInst field equal. */
bool
sameRecord(const func::DynInst &a, const func::DynInst &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.memAddr == b.memAddr &&
           a.nextPc == b.nextPc && a.inst == b.inst && a.cls == b.cls &&
           a.memSize == b.memSize && a.taken == b.taken &&
           a.kernelMode == b.kernelMode;
}

/** Synthesizes a stream of @p total records and logs where each
 *  fill() was asked to write, with the index of its first record. */
class RecordingSource : public func::TraceSource
{
  public:
    explicit RecordingSource(std::size_t total) : total_(total) {}

    bool
    next(func::DynInst &out) override
    {
        if (made_ == total_)
            return false;
        out = func::DynInst{};
        out.seq = ++made_;
        out.pc = 0x1000 + 4 * made_;
        return true;
    }

    std::size_t
    fill(func::DynInst *out, std::size_t max) override
    {
        fills.push_back({out, made_});
        return TraceSource::fill(out, max);
    }

    std::vector<std::pair<const func::DynInst *, std::size_t>> fills;

  private:
    std::size_t total_;
    std::size_t made_ = 0;
};

/** compress at the default scale: 379,761 records. */
func::CapturedTrace
captureCompress()
{
    func::Executor executor(workload::WorkloadRegistry::instance().build(
        "compress", workload::WorkloadOptions{}));
    return func::CapturedTrace::capture(executor);
}

TEST(CapturedTrace, WritesEachRecordInPlace)
{
    // A capture that fills its first block exactly never reallocates
    // it, so every record must sit where the source wrote it: no
    // staging buffer, no copy, under any allocator.
    const std::size_t first = func::CapturedTrace::InitialRecords;
    RecordingSource source(3 * first);
    func::CapturedTrace trace = func::CapturedTrace::capture(source, first);
    ASSERT_EQ(trace.size(), first);
    ASSERT_FALSE(source.fills.empty());
    for (std::size_t f = 0; f < source.fills.size(); ++f) {
        auto [dest, at] = source.fills[f];
        EXPECT_EQ(&trace[at], dest) << "fill " << f;
    }
    EXPECT_EQ(trace.memoryBytes(), trace.size() * 56);

    // A longer stream grows the block; memoryBytes() counts records.
    const std::size_t total = 2 * first + 30'000;
    RecordingSource longer(total);
    func::CapturedTrace grown = func::CapturedTrace::capture(longer);
    ASSERT_EQ(grown.size(), total);
    EXPECT_EQ(grown.memoryBytes(), grown.size() * 56);
    for (std::size_t i = 0; i < total; ++i)
        ASSERT_EQ(grown[i].seq, i + 1) << "record " << i;
}

TEST(CapturedTrace, OnePassWarmIndexMatchesReferenceScan)
{
    func::CapturedTrace trace = captureCompress();
    for (auto [ilb, dlb] : {std::pair{32u, 32u}, std::pair{64u, 16u}}) {
        // Record by record, straight from the definition of a command.
        std::vector<func::WarmCmd> reference;
        Addr last_iline = ~Addr{0};
        Addr last_dline = ~Addr{0};
        bool last_dirty = false;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const func::DynInst &rec = trace[i];
            auto at = static_cast<std::uint32_t>(i);
            Addr iline = rec.pc / ilb * ilb;
            if (iline != last_iline)
                reference.push_back({at, func::WarmKind::ILine, false, iline});
            last_iline = iline;
            if (rec.isControl())
                reference.push_back({at, func::WarmKind::Ctrl, false, 0});
            if (!rec.isMem())
                continue;
            Addr dline = rec.memAddr / dlb * dlb;
            if (dline != last_dline || (rec.isStore() && !last_dirty)) {
                reference.push_back(
                    {at, func::WarmKind::DLine, rec.isStore(), dline});
                last_dline = dline;
                last_dirty = rec.isStore();
            }
        }
        const func::WarmIndex *index = trace.warmIndex(ilb, dlb);
        ASSERT_NE(index, nullptr);
        EXPECT_EQ(index->iLineBytes, ilb);
        EXPECT_EQ(index->dLineBytes, dlb);
        EXPECT_TRUE(index->cmds == reference) << ilb << "/" << dlb;
        EXPECT_EQ(trace.warmIndex(ilb, dlb), index) << "memoized";
    }
}

TEST(TraceCache, TimingOnlyVariantsShareAKey)
{
    SimConfig base = cacheConfig("copy");
    SimConfig timing = base;
    // Aggressive timing changes: none may change the committed path.
    timing.core.dcache.tech = core::PortTechConfig::dualPortBase();
    timing.core.fetch.fetchWidth = 1;
    timing.core.dcache.cache.sizeBytes *= 2;
    timing.label = "other";
    EXPECT_EQ(TraceCache::key(base), TraceCache::key(timing));
}

TEST(TraceCache, FunctionalKnobsNeverShareAKey)
{
    SimConfig base = cacheConfig("copy");

    SimConfig workload = base;
    workload.workloadName = "crc";
    EXPECT_NE(TraceCache::key(base), TraceCache::key(workload));

    SimConfig scale = base;
    scale.workload.scale += 1;
    EXPECT_NE(TraceCache::key(base), TraceCache::key(scale));

    SimConfig seed = base;
    seed.workload.seed += 1;
    EXPECT_NE(TraceCache::key(base), TraceCache::key(seed));

    SimConfig os = base;
    os.workload.osLevel += 1;
    EXPECT_NE(TraceCache::key(base), TraceCache::key(os));
}

TEST(TraceCache, CapturesOnceThenReplays)
{
    TraceCache cache;
    SimConfig config = cacheConfig("copy");

    auto first = cache.acquire(config);
    SimConfig variant = config;
    variant.core.dcache.tech = core::PortTechConfig::dualPortBase();
    auto second = cache.acquire(variant);

    EXPECT_EQ(first.get(), second.get()) << "one shared capture";
    TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.captures, 1u);
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ(stats.instsCaptured, first->size());
    EXPECT_EQ(stats.instsSkipped, first->size());

    // The capture is the exact committed stream a live executor emits.
    func::Executor golden(workload::WorkloadRegistry::instance().build(
        config.workloadName, config.workload));
    auto expected = func::recordTrace(golden, ~std::size_t{0});
    ASSERT_EQ(first->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_TRUE(sameRecord((*first)[i], expected[i])) << "record " << i;
}

TEST(TraceCache, OnlySampledCapturesBuildAWarmIndex)
{
    // Full-detail runs never fast-forward, so their capture builds no
    // warm-command index.
    TraceCache full_cache;
    auto full = full_cache.acquire(cacheConfig("copy"));
    EXPECT_EQ(full->warmIndexCount(), 0u);

    SimConfig sampled = cacheConfig("copy");
    sampled.sample.mode = SampleParams::Mode::Periodic;
    TraceCache sampled_cache;
    auto trace = sampled_cache.acquire(sampled);
    EXPECT_EQ(trace->warmIndexCount(), 1u);
    EXPECT_NE(trace->warmIndex(sampled.core.fetch.icache.lineBytes,
                               sampled.core.dcache.cache.lineBytes),
              nullptr);
    EXPECT_EQ(trace->warmIndexCount(), 1u) << "prebuilt, not rebuilt";
}

TEST(TraceCache, PreparedCaptureIsChargedToItsFirstRun)
{
    TraceCache cache;
    SimConfig sampled = cacheConfig("copy");
    sampled.sample.mode = SampleParams::Mode::Periodic;

    TraceCache::Stats start = TraceCache::threadStats();
    auto prepared = cache.prepare(sampled);
    EXPECT_EQ(prepared->warmIndexCount(), 1u) << "a sampled prepare";
    EXPECT_EQ(cache.stats().captures, 1u);
    TraceCache::Stats before = TraceCache::threadStats();
    EXPECT_EQ((before - start).captures, 0u)
        << "the production waits for the run that claims it";
    EXPECT_EQ(cache.prepare(sampled).get(), prepared.get());
    EXPECT_EQ(cache.stats().captures, 1u) << "prepared once";

    // The first run takes the capture's place; the next one replays.
    auto first = cache.acquire(cacheConfig("copy"));
    TraceCache::Stats claimed = TraceCache::threadStats() - before;
    EXPECT_EQ(first.get(), prepared.get());
    EXPECT_EQ(claimed.captures, 1u);
    EXPECT_EQ(claimed.replays, 0u);
    EXPECT_EQ(claimed.instsCaptured, prepared->size());
    cache.acquire(cacheConfig("copy"));
    TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.captures, 1u);
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ((TraceCache::threadStats() - before).replays, 1u);
}

TEST(TraceCache, EvictsLruButKeepsInFlightReplaysValid)
{
    // A 1-byte bound forces an eviction as soon as a second capture
    // lands; the MRU entry always survives.
    TraceCache cache(1);
    auto copy = cache.acquire(cacheConfig("copy"));
    std::size_t copy_size = copy->size();
    auto crc = cache.acquire(cacheConfig("crc"));

    TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.captures, 2u);
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_EQ(cache.residentCount(), 1u) << "only the MRU entry stays";

    // The evicted capture is still alive through our shared_ptr.
    EXPECT_EQ(copy->size(), copy_size);
    EXPECT_GT(copy->size(), 0u);

    // Re-acquiring the evicted workload re-captures (not a replay).
    cache.acquire(cacheConfig("copy"));
    EXPECT_EQ(cache.stats().captures, 3u);
}

TEST(TraceCache, ConcurrentAcquiresCaptureExactlyOnce)
{
    TraceCache cache;
    SimConfig config = cacheConfig("histogram");

    util::ThreadPool pool(4);
    std::vector<std::future<const func::CapturedTrace *>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit(
            [&cache, config] { return cache.acquire(config).get(); }));

    std::vector<const func::CapturedTrace *> traces;
    for (auto &future : futures)
        traces.push_back(future.get());
    for (const auto *trace : traces)
        EXPECT_EQ(trace, traces[0]) << "all waiters share one capture";

    TraceCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.captures, 1u) << "single-flight: one execution";
    EXPECT_EQ(stats.replays, 7u);
}

TEST(TraceCache, FailedCapturesAreNotCached)
{
    TraceCache cache;
    SimConfig config = cacheConfig("no-such-workload");

    CPE_EXPECT_THROW_MSG(cache.acquire(config), WorkloadError,
                         "no-such-workload");
    EXPECT_EQ(cache.residentCount(), 0u);
    // The failure was not memoized: the next acquire retries from
    // scratch (and fails the same way, being deterministic).
    CPE_EXPECT_THROW_MSG(cache.acquire(config), WorkloadError,
                         "no-such-workload");
}

} // namespace
} // namespace cpe::sim
