/**
 * @file
 * Unit tests for the sampled-simulation building blocks: the
 * SampleScheduler's phase plans, the Student-t IPC estimator, the
 * StitchedTraceSource hand-back contract, the warm-only update paths,
 * statistics snapshot/restore, the [sample] configuration rules, and
 * an end-to-end periodic sampled run checked for determinism and a
 * sane error against the full-detail result, plus the warm-index
 * build raced from several threads.  (Bit-identity of the degenerate
 * plan is covered by test_sampled_differential.cc.)
 */

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "func/captured_trace.hh"
#include "func/executor.hh"
#include "mem/cache.hh"
#include "sim/phase_engine.hh"
#include "sim/sample_scheduler.hh"
#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "stats/estimator.hh"
#include "stats/stats.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

#include "expect_error.hh"

namespace cpe::sim {
namespace {

// --- SampleScheduler plans -------------------------------------------

TEST(SampleScheduler, DegenerateWithoutWarmupIsMeasureToEnd)
{
    SamplePlan plan = SampleScheduler::degenerate(0);
    EXPECT_FALSE(plan.sampled());
    ASSERT_EQ(plan.prologue.size(), 1u);
    EXPECT_EQ(plan.prologue[0].kind, PhaseKind::DetailedMeasure);
    EXPECT_EQ(plan.prologue[0].insts, 0u);
    EXPECT_TRUE(plan.cycle.empty());
}

TEST(SampleScheduler, DegenerateWithWarmupIsTwoPhases)
{
    SamplePlan plan = SampleScheduler::degenerate(5000);
    EXPECT_FALSE(plan.sampled());
    ASSERT_EQ(plan.prologue.size(), 2u);
    EXPECT_EQ(plan.prologue[0].kind, PhaseKind::DetailedWarmup);
    EXPECT_EQ(plan.prologue[0].insts, 5000u);
    EXPECT_EQ(plan.prologue[1].kind, PhaseKind::DetailedMeasure);
    EXPECT_EQ(plan.prologue[1].insts, 0u);
}

TEST(SampleScheduler, PeriodicCycleIsFastForwardWarmMeasure)
{
    SampleParams params;
    params.mode = SampleParams::Mode::Periodic;
    params.warmupInsts = 1000;
    params.measureInsts = 2000;
    params.periodInsts = 100'000;
    SamplePlan plan = SampleScheduler::plan(params, 0);
    EXPECT_TRUE(plan.sampled());
    EXPECT_TRUE(plan.prologue.empty());
    // Fast-forward leads so even the first measurement follows a long
    // functional-warming leg (a cold first sample would be an outlier
    // small-n runs cannot absorb).
    ASSERT_EQ(plan.cycle.size(), 3u);
    EXPECT_EQ(plan.cycle[0].kind, PhaseKind::FastForward);
    EXPECT_EQ(plan.cycle[0].insts, 97'000u);
    EXPECT_EQ(plan.cycle[1].kind, PhaseKind::DetailedWarmup);
    EXPECT_EQ(plan.cycle[1].insts, 1000u);
    EXPECT_EQ(plan.cycle[2].kind, PhaseKind::DetailedMeasure);
    EXPECT_EQ(plan.cycle[2].insts, 2000u);
}

TEST(SampleScheduler, PeriodEqualToDetailedLegDropsFastForward)
{
    SampleParams params;
    params.mode = SampleParams::Mode::Periodic;
    params.warmupInsts = 0;
    params.measureInsts = 3000;
    params.periodInsts = 3000;
    SamplePlan plan = SampleScheduler::plan(params, 0);
    ASSERT_EQ(plan.cycle.size(), 1u);
    EXPECT_EQ(plan.cycle[0].kind, PhaseKind::DetailedMeasure);
    EXPECT_EQ(plan.cycle[0].insts, 3000u);
}

TEST(SampleScheduler, FixedModeDividesTheStream)
{
    SampleParams params;
    params.mode = SampleParams::Mode::Fixed;
    params.warmupInsts = 1000;
    params.measureInsts = 2000;
    params.intervals = 10;
    SamplePlan plan = SampleScheduler::plan(params, 1'000'000);
    ASSERT_EQ(plan.cycle.size(), 3u);
    // period = 1M / 10 = 100k; FF leg = 100k - 3k, leading.
    EXPECT_EQ(plan.cycle[0].kind, PhaseKind::FastForward);
    EXPECT_EQ(plan.cycle[0].insts, 97'000u);
}

TEST(SampleScheduler, FixedModeNeedsAStreamLength)
{
    SampleParams params;
    params.mode = SampleParams::Mode::Fixed;
    CPE_EXPECT_THROW_MSG(SampleScheduler::plan(params, 0), ConfigError,
                         "known stream length");
}

TEST(SampleScheduler, PeriodShorterThanDetailedLegIsRejected)
{
    SampleParams params;
    params.mode = SampleParams::Mode::Periodic;
    params.warmupInsts = 1000;
    params.measureInsts = 2000;
    params.periodInsts = 2500;
    CPE_EXPECT_THROW_MSG(SampleScheduler::plan(params, 0), ConfigError,
                         "shorter than one detailed leg");
}

TEST(SampleScheduler, ModeNamesRoundTrip)
{
    EXPECT_EQ(SampleParams::parseMode("off"), SampleParams::Mode::Off);
    EXPECT_EQ(SampleParams::parseMode("periodic"),
              SampleParams::Mode::Periodic);
    EXPECT_EQ(SampleParams::parseMode("fixed"),
              SampleParams::Mode::Fixed);
    EXPECT_STREQ(SampleParams::modeName(SampleParams::Mode::Periodic),
                 "periodic");
    CPE_EXPECT_THROW_MSG(SampleParams::parseMode("sometimes"),
                         ConfigError, "not one of");
}

// --- Student-t estimator ---------------------------------------------

TEST(Estimator, CriticalValuesMatchTheTable)
{
    using stats::Estimator;
    EXPECT_DOUBLE_EQ(Estimator::tCritical(1, 0.95), 12.706);
    EXPECT_DOUBLE_EQ(Estimator::tCritical(10, 0.95), 2.228);
    EXPECT_DOUBLE_EQ(Estimator::tCritical(30, 0.99), 2.750);
    EXPECT_DOUBLE_EQ(Estimator::tCritical(120, 0.90), 1.658);
    // Untabulated dof snaps down (conservative, wider interval).
    EXPECT_DOUBLE_EQ(Estimator::tCritical(35, 0.95), 2.042);
    EXPECT_DOUBLE_EQ(Estimator::tCritical(100, 0.95), 2.000);
    // Far beyond the table: the normal limit.
    EXPECT_DOUBLE_EQ(Estimator::tCritical(1000, 0.95), 1.960);
    EXPECT_DOUBLE_EQ(Estimator::tCritical(0, 0.95), 0.0);
}

TEST(Estimator, WelfordMeanAndInterval)
{
    stats::Estimator est;
    est.add(1.0);
    est.add(2.0);
    est.add(3.0);
    stats::Estimate e = est.estimate(0.95);
    EXPECT_EQ(e.n, 3u);
    EXPECT_DOUBLE_EQ(e.mean, 2.0);
    EXPECT_DOUBLE_EQ(e.stddev, 1.0);
    EXPECT_NEAR(e.sem, 1.0 / std::sqrt(3.0), 1e-12);
    // t(dof=2, 95%) = 4.303.
    EXPECT_NEAR(e.halfWidth, 4.303 / std::sqrt(3.0), 1e-12);
    EXPECT_NEAR(e.ciLow, e.mean - e.halfWidth, 1e-12);
    EXPECT_NEAR(e.ciHigh, e.mean + e.halfWidth, 1e-12);
    EXPECT_NEAR(e.relErrorPct(), 100.0 * e.halfWidth / 2.0, 1e-12);
    EXPECT_TRUE(e.covers(2.0));
    EXPECT_FALSE(e.covers(100.0));
}

TEST(Estimator, FewerThanTwoSamplesCollapsesTheInterval)
{
    stats::Estimator est;
    est.add(1.5);
    stats::Estimate e = est.estimate(0.95);
    EXPECT_EQ(e.n, 1u);
    EXPECT_DOUBLE_EQ(e.ciLow, 1.5);
    EXPECT_DOUBLE_EQ(e.ciHigh, 1.5);
    EXPECT_DOUBLE_EQ(e.halfWidth, 0.0);
}

// --- StitchedTraceSource ---------------------------------------------

func::DynInst
rec(SeqNum seq)
{
    func::DynInst di;
    di.seq = seq;
    di.pc = 0x1000 + seq * isa::InstBytes;
    return di;
}

TEST(StitchedTraceSource, ServesHandBackThenTopsUpFromBacking)
{
    std::vector<func::DynInst> backing_recs;
    for (SeqNum seq = 4; seq <= 10; ++seq)
        backing_recs.push_back(rec(seq));
    func::VectorTraceSource backing(std::move(backing_recs));
    StitchedTraceSource stitched(&backing);
    stitched.prepend({rec(1), rec(2), rec(3)});
    EXPECT_EQ(stitched.pendingCount(), 3u);

    // One fill spans the hand-back/backing seam: a full return, so a
    // short fill still means true end of stream.
    func::DynInst buf[5];
    ASSERT_EQ(stitched.fill(buf, 5), 5u);
    for (SeqNum seq = 1; seq <= 5; ++seq)
        EXPECT_EQ(buf[seq - 1].seq, seq);
    EXPECT_EQ(stitched.pendingCount(), 0u);

    // Remaining backing records, then a short (final) fill.
    ASSERT_EQ(stitched.fill(buf, 5), 5u);
    for (SeqNum seq = 6; seq <= 10; ++seq)
        EXPECT_EQ(buf[seq - 6].seq, seq);
    EXPECT_EQ(stitched.fill(buf, 5), 0u);
}

TEST(StitchedTraceSource, PrependAgainKeepsStreamOrder)
{
    func::VectorTraceSource backing({rec(5)});
    StitchedTraceSource stitched(&backing);
    stitched.prepend({rec(2), rec(3), rec(4)});
    func::DynInst out;
    ASSERT_TRUE(stitched.next(out));
    EXPECT_EQ(out.seq, 2u);
    // A second hand-back precedes the unserved remnant of the first:
    // 1 (new), then 3, 4 (old remnant), then 5 (backing).
    stitched.prepend({rec(1)});
    std::vector<SeqNum> served;
    while (stitched.next(out))
        served.push_back(out.seq);
    EXPECT_EQ(served, (std::vector<SeqNum>{1, 3, 4, 5}));
}

// --- Warm-only update paths ------------------------------------------

TEST(WarmPaths, CacheWarmAccessInstallsWithoutStatistics)
{
    mem::CacheParams params{.name = "t", .sizeBytes = 256, .assoc = 2,
                            .lineBytes = 32};
    mem::Cache cache(params);
    // Miss: installs the line, reports no eviction while the set has
    // room, and leaves the demand counters untouched.
    mem::Cache::FillResult evicted;
    EXPECT_FALSE(cache.warmAccess(0x1000, false, &evicted));
    EXPECT_FALSE(evicted.evicted);
    EXPECT_TRUE(cache.probe(0x1000));
    // Hit path.
    EXPECT_TRUE(cache.warmAccess(0x1000, false));
    EXPECT_EQ(cache.hits.value(), 0u);
    EXPECT_EQ(cache.misses.value(), 0u);

    // Fill the 2-way set with conflicting lines, then overflow it: the
    // displaced dirty victim is reported for next-level coherence.
    cache.warmAccess(0x1000, true);  // write hit: dirty, MRU
    EXPECT_FALSE(cache.warmAccess(0x1000 + 128, false, &evicted));
    EXPECT_FALSE(evicted.evicted);  // second way was free
    EXPECT_FALSE(cache.warmAccess(0x1000 + 256, false, &evicted));
    EXPECT_TRUE(evicted.evicted);
    EXPECT_EQ(evicted.evictedAddr, 0x1000u);  // LRU after +128's fill
    EXPECT_TRUE(evicted.evictedDirty);
    EXPECT_FALSE(cache.probe(0x1000));
}

TEST(WarmPaths, PredictorWarmMatchesPredictUpdate)
{
    // Train one predictor through the demand path and a twin through
    // the warm path; they must end up making identical predictions.
    // Bimodal: one counter per PC, so the trained direction sticks.
    cpu::BranchPredictorParams params;
    params.kind = cpu::PredictorKind::Bimodal;
    cpu::BranchPredictor demand(params);
    cpu::BranchPredictor warmed(params);
    isa::Inst branch{isa::Opcode::BNE, isa::NoReg, 5, 0, 16};
    Addr pc = 0x2000;
    Addr target = pc + 64;
    for (int i = 0; i < 8; ++i) {
        demand.predict(pc, branch);
        demand.update(pc, branch, true, target);
        warmed.warm(pc, branch, true, target);
    }
    // The warm path never touched the statistics...
    EXPECT_EQ(warmed.lookups.value(), 0u);
    EXPECT_EQ(warmed.condLookups.value(), 0u);
    // ...but left the same predictor state behind.
    auto a = demand.predict(pc, branch);
    auto b = warmed.predict(pc, branch);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.targetKnown, b.targetKnown);
    EXPECT_TRUE(b.taken);  // trained taken
}

// --- Statistics snapshot/restore -------------------------------------

TEST(StatSnapshot, RestoreDropsEverythingAccumulatedSince)
{
    stats::StatGroup group("g");
    stats::Scalar a;
    stats::Average avg;
    group.addScalar("a", &a, "");
    group.addAverage("avg", &avg, "");
    a += 7;
    avg.sample(2);
    stats::StatSnapshot snap = group.snapshot();
    a += 100;
    avg.sample(50);
    group.restore(snap);
    EXPECT_EQ(a.value(), 7u);
    EXPECT_DOUBLE_EQ(avg.mean(), 2.0);
    EXPECT_EQ(avg.count(), 1u);
}

// --- [sample] configuration rules ------------------------------------

TEST(SampleConfig, SampledModeRejectsFullDetailFeatures)
{
    SimConfig config = SimConfig::defaults();
    config.sample.mode = SampleParams::Mode::Periodic;
    config.warmupInsts = 1000;
    auto diags = config.validate();
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].field, "sample.mode");

    config.warmupInsts = 0;
    config.obs.sampleCycles = 500;
    EXPECT_FALSE(config.validate().empty());

    config.obs.sampleCycles = 0;
    EXPECT_TRUE(config.validate().empty());
}

TEST(SampleConfig, TraceCacheBoundMustBeNonzero)
{
    SimConfig config = SimConfig::defaults();
    config.traceCacheMb = 0;
    auto diags = config.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].field, "trace_cache_mb");
}

// --- End-to-end sampled runs -----------------------------------------

SimConfig
sampledConfig()
{
    SimConfig config = SimConfig::defaults();
    config.sample.mode = SampleParams::Mode::Periodic;
    config.sample.warmupInsts = 1000;
    config.sample.measureInsts = 2000;
    config.sample.periodInsts = 20'000;
    return config;
}

TEST(SampledRun, ReportsEstimateAndIsDeterministic)
{
    setVerbose(false);
    SimResult a = simulate(sampledConfig());
    EXPECT_TRUE(a.sampled);
    EXPECT_GE(a.measuredIntervals, 5u);
    EXPECT_GT(a.ffInsts, 0u);
    EXPECT_GT(a.ipc, 0.0);
    // The interval brackets the reported mean (asymmetrically: it is
    // the reciprocal of a symmetric mean-CPI interval).
    EXPECT_LE(a.ipcCiLow, a.ipc);
    EXPECT_GE(a.ipcCiHigh, a.ipc);
    EXPECT_NEAR(a.ipcCiHalf, (a.ipcCiHigh - a.ipcCiLow) / 2, 1e-9);
    EXPECT_FALSE(a.sampleJson.empty());
    // The headline IPC is the interval mean (SMARTS estimator), not
    // the aggregate insts/cycles ratio — but the union of measured
    // intervals should put that ratio in the same ballpark.
    double union_ipc = static_cast<double>(a.insts) / a.cycles;
    EXPECT_NEAR(a.ipc, union_ipc, 0.05 * union_ipc);

    SimResult b = simulate(sampledConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.sampleJson, b.sampleJson);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

TEST(SampledRun, WarmIndexMatchesRecordByRecordWalk)
{
    // A live-executed sampled run fast-forwards record by record
    // (warmSpan); a replayed one walks the capture's precomputed
    // warm-command index (warmCompacted).  The compaction must be
    // state-exact, so the two runs — same workload, same plan — have
    // to agree to the byte.
    setVerbose(false);
    SimResult live = simulate(sampledConfig());
    TraceCache cache;
    SimConfig config = sampledConfig();
    config.traceCache = &cache;
    SimResult replayed = simulate(config);
    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.insts, replayed.insts);
    EXPECT_EQ(live.ipc, replayed.ipc);
    EXPECT_EQ(live.sampleJson, replayed.sampleJson);
    EXPECT_EQ(live.statsJson, replayed.statsJson);
}

TEST(SampledRun, ConcurrentWarmIndexBuildsOncePerGeometry)
{
    // Sweep workers replaying one shared capture may all ask for its
    // index at once, for different L1 geometries: each geometry is
    // built once, and every caller gets that one index.
    auto capture = [] {
        func::Executor executor(workload::WorkloadRegistry::instance().build(
            "compress", workload::WorkloadOptions{}));
        return func::CapturedTrace::capture(executor);
    };
    const func::CapturedTrace shared = capture();
    constexpr unsigned Geometry[2][2] = {{32, 32}, {64, 16}};
    constexpr int Threads = 4;
    const func::WarmIndex *got[Threads][2] = {};
    std::vector<std::thread> threads;
    for (int t = 0; t < Threads; ++t)
        threads.emplace_back([&shared, &got, &Geometry, t] {
            // Half the threads ask for each geometry first.
            for (int k = 0; k < 2; ++k) {
                int g = (t + k) % 2;
                got[t][g] = shared.warmIndex(Geometry[g][0], Geometry[g][1]);
            }
        });
    for (auto &thread : threads)
        thread.join();

    const func::CapturedTrace fresh = capture();
    for (int g = 0; g < 2; ++g) {
        for (int t = 1; t < Threads; ++t)
            EXPECT_EQ(got[t][g], got[0][g]) << "geometry " << g;
        const func::WarmIndex *serial =
            fresh.warmIndex(Geometry[g][0], Geometry[g][1]);
        EXPECT_TRUE(got[0][g]->cmds == serial->cmds) << "geometry " << g;
    }
    EXPECT_NE(got[0][0], got[0][1]);
}

TEST(SampledRun, EstimateTracksTheFullDetailResult)
{
    setVerbose(false);
    SimResult sampled = simulate(sampledConfig());
    SimResult full = simulate(SimConfig::defaults());
    EXPECT_FALSE(full.sampled);
    // Loose sanity bound — the tight (<= 3%) bound is F13's gate; this
    // guards against gross accounting bugs (e.g. measuring the warm-up
    // or fast-forward legs), not sampling noise.
    double err = std::abs(sampled.ipc - full.ipc) / full.ipc;
    EXPECT_LT(err, 0.15) << "sampled " << sampled.ipc << " vs full "
                         << full.ipc;
}

} // namespace
} // namespace cpe::sim
