/**
 * @file
 * Whole-core timing tests: golden-model equivalence (the timing core
 * commits exactly the functional stream), determinism, and directed
 * micro-programs whose cycle counts expose each machine mechanism —
 * ILP extraction, dependency serialization, mispredict penalties,
 * store-commit backpressure, and port-count scaling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "cpu/ooo_core.hh"
#include "exp/registry.hh"
#include "func/executor.hh"
#include "prog/builder.hh"
#include "workload/registry.hh"

namespace cpe::cpu {
namespace {

using namespace prog::reg;
using prog::Builder;
using prog::Label;
using prog::Program;

struct RunOutcome
{
    Cycle cycles;
    std::uint64_t insts;
    double ipc;
};

RunOutcome
runCore(const Program &program, CoreParams params = CoreParams{})
{
    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    OooCore core(params, &executor, &hierarchy);
    Cycle cycles = core.run();
    return {cycles, core.committedInsts(), core.ipc()};
}

/** The `key=` stage cycle of one pipe-trace line. */
std::uint64_t
pipeField(const std::string &line, const std::string &key)
{
    std::size_t pos = line.find(" " + key + "=");
    if (pos == std::string::npos) {
        ADD_FAILURE() << "no " << key << "= in: " << line;
        return 0;
    }
    return std::strtoull(line.c_str() + pos + key.size() + 2, nullptr, 10);
}

// Loop-shaped kernels so the I-cache warms after the first iteration
// (straight-line megabyte code would measure cold I-misses instead).

Program
independentAlus(unsigned iters)
{
    Builder b("ilp");
    b.loadImm(s0, iters);
    Label loop = b.here();
    for (unsigned i = 0; i < 8; ++i)
        b.addi(static_cast<RegIndex>(5 + i), zero, 1);
    b.addi(s0, s0, -1);
    b.bne(s0, zero, loop);
    b.halt();
    return b.build();
}

Program
dependentChain(unsigned iters)
{
    Builder b("chain");
    b.loadImm(s0, iters);
    b.loadImm(t0, 0);
    Label loop = b.here();
    for (unsigned i = 0; i < 8; ++i)
        b.addi(t0, t0, 1);
    b.addi(s0, s0, -1);
    b.bne(s0, zero, loop);
    b.halt();
    return b.build();
}

TEST(Core, CommitsExactlyTheFunctionalStream)
{
    Builder b("equiv");
    Addr data = b.allocData(64, 8);
    b.loadImm(t0, data);
    b.loadImm(t1, 25);
    Label loop = b.here();
    b.sd(t1, 0, t0);
    b.ld(t2, 0, t0);
    b.add(t3, t3, t2);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.halt();
    Program program = b.build();

    // Reference: pure functional run.
    func::Executor golden(program);
    std::uint64_t golden_count = golden.run();

    auto outcome = runCore(program);
    EXPECT_EQ(outcome.insts, golden_count);
    EXPECT_GE(outcome.cycles, golden_count / 4);  // 4-wide bound
}

TEST(Core, DeterministicAcrossRuns)
{
    Program program = independentAlus(200);
    auto a = runCore(program);
    auto b = runCore(program);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
}

TEST(Core, ExtractsIlpFromIndependentOps)
{
    auto outcome = runCore(independentAlus(300));
    // 2 ALUs in the default config bound sustained integer IPC at ~2;
    // it must get reasonably close once startup amortizes.
    EXPECT_GT(outcome.ipc, 1.5);
}

TEST(Core, WiderMachineRunsIlpFaster)
{
    CoreParams narrow;
    narrow.renameWidth = narrow.issueWidth = narrow.commitWidth = 1;
    narrow.fetch.fetchWidth = 1;
    CoreParams wide;  // default 4-wide
    Program program = independentAlus(400);
    auto slow = runCore(program, narrow);
    auto fast = runCore(program, wide);
    EXPECT_LT(fast.cycles, slow.cycles);
    EXPECT_GT(static_cast<double>(slow.cycles) / fast.cycles, 1.6);
}

TEST(Core, DependentChainSerializes)
{
    auto chained = runCore(dependentChain(50));
    auto parallel = runCore(independentAlus(50));
    // A RAW chain of 400 1-cycle ops needs ~400 cycles at any width.
    EXPECT_GE(chained.cycles, 400u);
    EXPECT_LT(parallel.cycles, chained.cycles);
}

TEST(Core, MispredictsCostCycles)
{
    // Data-dependent branch pattern the predictor cannot learn:
    // alternate taken/not-taken keyed off an LCG bit.
    auto build = [](bool predictable) {
        Builder b("br");
        b.loadImm(s0, 12345);
        b.loadImm(s1, 200);   // iterations
        Label loop = b.here();
        Label skip = b.newLabel();
        if (predictable) {
            b.beq(zero, zero, skip);  // always taken
        } else {
            // s0 = s0 * 1103515245 + 12345; branch on bit 16.
            b.loadImm(t0, 1103515245);
            b.mul(s0, s0, t0);
            b.addi(s0, s0, 12345);
            b.srli(t1, s0, 16);
            b.andi(t1, t1, 1);
            b.bne(t1, zero, skip);
        }
        b.addi(s2, s2, 1);
        b.bind(skip);
        b.addi(s1, s1, -1);
        b.bne(s1, zero, loop);
        b.halt();
        return b.build();
    };

    Program random_prog = build(false);
    Program pred_prog = build(true);
    func::Executor count_random(random_prog);
    std::uint64_t random_insts = count_random.run();
    auto random = runCore(random_prog);
    double random_cpi = static_cast<double>(random.cycles) / random_insts;

    func::Executor count_pred(pred_prog);
    std::uint64_t pred_insts = count_pred.run();
    auto predictable = runCore(pred_prog);
    double pred_cpi = static_cast<double>(predictable.cycles) / pred_insts;

    // Random branches cost noticeably more per instruction.
    EXPECT_GT(random_cpi, pred_cpi * 1.2);
}

TEST(Core, StoreBurstBackpressureWithoutBuffer)
{
    // A burst of stores to distinct (warm) lines: with no store buffer
    // each store needs the single port at commit.
    Builder b("storeburst");
    Addr data = b.allocData(4096, 64);
    b.loadImm(t0, data);
    // Warm every line the burst will touch (16 reps x 32 B).
    b.loadImm(t1, 16);
    Label warm = b.here();
    b.ld(t2, 0, t0);
    b.addi(t0, t0, 32);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, warm);
    // Store burst, unrolled.
    b.loadImm(t0, data);
    for (int rep = 0; rep < 16; ++rep) {
        for (int u = 0; u < 4; ++u)
            b.sd(t1, 8 * u, t0);
        b.addi(t0, t0, 32);
    }
    b.halt();
    Program program = b.build();

    CoreParams plain;  // 1 port, no buffer
    CoreParams buffered = plain;
    buffered.dcache.tech.storeBufferEntries = 8;
    buffered.dcache.tech.portWidthBytes = 32;  // wide drains

    auto without = runCore(program, plain);
    auto with = runCore(program, buffered);
    EXPECT_LT(with.cycles, without.cycles)
        << "combining + wide drains must retire the burst faster";
}

TEST(Core, DualPortHelpsLoadBursts)
{
    Builder b("loadburst");
    Addr data = b.allocData(2048, 64);
    b.loadImm(s0, data);
    b.loadImm(s1, 40);  // passes over a warm 2 KiB region
    Label pass = b.here();
    b.mv(t0, s0);
    b.loadImm(t1, 16);
    Label loop = b.here();
    b.ld(t2, 0, t0);
    b.ld(t3, 8, t0);
    b.ld(t4, 16, t0);
    b.ld(t5, 24, t0);
    b.addi(t0, t0, 32);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.addi(s1, s1, -1);
    b.bne(s1, zero, pass);
    b.halt();
    Program program = b.build();

    CoreParams one;
    one.dcache.tech = core::PortTechConfig::singlePortBase();
    CoreParams two;
    two.dcache.tech = core::PortTechConfig::dualPortBase();

    auto single = runCore(program, one);
    auto dual = runCore(program, two);
    EXPECT_GT(static_cast<double>(single.cycles) / dual.cycles, 1.25)
        << "dual-ported cache must speed up a load-bound loop";
}

TEST(Core, LineBuffersRecoverLoadBandwidth)
{
    // Same load-burst program as above: sequential loads are exactly
    // what load-all captures.
    Builder b("loadall");
    Addr data = b.allocData(2048, 64);
    b.loadImm(s0, data);
    b.loadImm(s1, 40);
    Label pass = b.here();
    b.mv(t0, s0);
    b.loadImm(t1, 16);
    Label loop = b.here();
    b.ld(t2, 0, t0);
    b.ld(t3, 8, t0);
    b.ld(t4, 16, t0);
    b.ld(t5, 24, t0);
    b.addi(t0, t0, 32);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.addi(s1, s1, -1);
    b.bne(s1, zero, pass);
    b.halt();
    Program program = b.build();

    CoreParams plain;
    plain.dcache.tech = core::PortTechConfig::singlePortBase();
    CoreParams loadall = plain;
    loadall.dcache.tech.lineBuffers = 4;
    loadall.dcache.tech.portWidthBytes = 32;

    auto base = runCore(program, plain);
    auto buffered = runCore(program, loadall);
    EXPECT_GT(static_cast<double>(base.cycles) / buffered.cycles, 1.2)
        << "load-all-wide must relieve the single port";
}

TEST(Core, HaltDrainsOutstandingStores)
{
    Builder b("drain");
    Addr data = b.allocData(256, 64);
    b.loadImm(t0, data);
    for (int i = 0; i < 8; ++i)
        b.sd(t0, 8 * i, t0);
    b.halt();
    Program program = b.build();

    CoreParams params;
    params.dcache.tech.storeBufferEntries = 8;
    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    OooCore core(params, &executor, &hierarchy);
    core.run();
    EXPECT_FALSE(core.dcache().busy())
        << "run() must drain buffered stores after HALT commits";
    EXPECT_TRUE(core.dcache().l1d().isDirty(data));
}

TEST(Core, KernelModeSwitchesAreCounted)
{
    Builder b("modes");
    for (int i = 0; i < 3; ++i) {
        b.emode();
        b.addi(t0, t0, 1);
        b.xmode();
    }
    b.halt();
    auto program = b.build();

    CoreParams params;
    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    OooCore core(params, &executor, &hierarchy);
    core.run();
    EXPECT_EQ(core.modeSwitches.value(), 6u);
}

TEST(Core, IpcNeverExceedsMachineWidth)
{
    auto outcome = runCore(independentAlus(200));
    EXPECT_LE(outcome.ipc, 4.0);
}

TEST(Core, WarmupResetsStatistics)
{
    Program program = independentAlus(300);
    func::Executor counter(program);
    std::uint64_t total = counter.run();

    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    cpu::OooCore core(CoreParams{}, &executor, &hierarchy);
    // The degenerate warm-up schedule, hand-rolled: a commit boundary
    // at the halfway point whose hook starts the measurement region
    // (what the phase engine installs for a warmup_insts config).
    bool warmup_fired = false;
    core.setCommitBoundary(total / 2, [&](Cycle now) {
        warmup_fired = true;
        core.beginMeasurement(now);
        hierarchy.statGroup().resetAll();
        return true;
    });
    Cycle cycles = core.run();

    EXPECT_TRUE(warmup_fired);
    // Only the post-warm-up half is counted.
    EXPECT_EQ(core.committedInsts(), total - total / 2);
    EXPECT_LT(core.measuredCycles(), cycles);
    EXPECT_GT(core.measuredCycles(), 0u);
    // Measured IPC is better than whole-run IPC: the cold I-cache
    // start-up landed in the warm-up region.
    double whole_run =
        static_cast<double>(total) / cycles;
    EXPECT_GT(core.ipc(), whole_run);
}

TEST(Core, TraceWithoutHaltTerminates)
{
    // Feed the core a truncated trace via a bounded VectorTraceSource.
    Builder b("trunc");
    b.loadImm(t0, 0);
    for (int i = 0; i < 50; ++i)
        b.addi(t0, t0, 1);
    b.halt();
    Program program = b.build();
    func::Executor executor(program);
    auto trace = func::recordTrace(executor, 20);  // cut before HALT
    func::VectorTraceSource source(trace);

    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    OooCore core(CoreParams{}, &source, &hierarchy);
    Cycle cycles = core.run();
    EXPECT_EQ(core.committedInsts(), 20u);
    EXPECT_GT(cycles, 0u);
}

TEST(Core, PipeTraceRecordsStageTimestamps)
{
    Builder b("trace");
    b.loadImm(t0, 3);
    b.addi(t1, t0, 1);
    b.halt();
    Program program = b.build();

    std::ostringstream trace;
    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    OooCore core(CoreParams{}, &executor, &hierarchy);
    core.setPipeTrace(&trace);
    core.run();

    std::string text = trace.str();
    // One line per committed instruction.
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::count(text.begin(), text.end(), '\n')),
              core.committedInsts());
    EXPECT_NE(text.find("addi x6, x5, 1"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);

    // Stage timestamps are monotonic within a line: f <= d <= i <= c <= r.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        auto field = [&](const char *key) { return pipeField(line, key); };
        std::uint64_t f = field("f"), d = field("d"), i = field("i"),
                      c = field("c"), r = field("r");
        EXPECT_LE(f, d) << line;
        EXPECT_LE(d, i) << line;
        EXPECT_LE(i, c) << line;
        EXPECT_LE(c, r) << line;
    }
}

TEST(Core, CommitOrderIsProgramOrder)
{
    Builder b("order");
    Addr data = b.allocData(64, 8);
    b.loadImm(t0, data);
    b.ld(t1, 0, t0);        // slow (cold miss)
    b.addi(t2, zero, 1);    // fast, independent
    b.addi(t3, zero, 2);
    b.halt();
    Program program = b.build();

    std::ostringstream trace;
    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    OooCore core(CoreParams{}, &executor, &hierarchy);
    core.setPipeTrace(&trace);
    core.run();

    // seq numbers appear in ascending order even though the ALU ops
    // complete long before the missing load.
    std::istringstream lines(trace.str());
    std::string line;
    std::uint64_t prev = 0;
    while (std::getline(lines, line)) {
        std::uint64_t seq =
            std::strtoull(line.c_str() + line.find("seq=") + 4, nullptr,
                          10);
        EXPECT_EQ(seq, prev + 1);
        prev = seq;
    }
}

TEST(Core, DependentIssuesAtItsProducersDoneCycle)
{
    // A serial chain of pipelined 3-cycle multiplies: each consumer is
    // dispatched long before its producer completes and must issue on
    // exactly the producer's done cycle (or, when dispatch is later,
    // the cycle after dispatch — issue runs before dispatch).
    Builder b("mulchain");
    b.loadImm(s0, 20);
    b.loadImm(t0, 3);
    b.loadImm(t1, 5);
    Label loop = b.here();
    for (int i = 0; i < 8; ++i)
        b.mul(t0, t0, t1);
    b.addi(s0, s0, -1);
    b.bne(s0, zero, loop);
    b.halt();
    Program program = b.build();

    std::ostringstream trace;
    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    OooCore core(CoreParams{}, &executor, &hierarchy);
    core.setPipeTrace(&trace);
    core.run();

    std::istringstream lines(trace.str());
    std::string line;
    std::uint64_t prev_done = 0;
    unsigned chained = 0;
    unsigned waited = 0;
    while (std::getline(lines, line)) {
        if (line.find("mul ") == std::string::npos)
            continue;
        std::uint64_t d = pipeField(line, "d"), i = pipeField(line, "i"),
                      c = pipeField(line, "c");
        EXPECT_EQ(c, i + 3) << line;
        if (prev_done) {
            EXPECT_EQ(i, std::max(prev_done, d + 1)) << line;
            ++chained;
            waited += prev_done > d + 1;
        }
        prev_done = c;
    }
    EXPECT_EQ(chained, 20u * 8 - 1);
    EXPECT_GT(waited, chained / 2) << "consumers should mostly wait";
}

TEST(Core, WorkCountersStayWithinTheWakeupBudget)
{
    // Deterministic work counters of the window bookkeeping over the
    // F5 grid.  Producer lookups happen once per in-window issue
    // operand at dispatch, plus store commit and store-to-load
    // forwarding checks — never during select, which would cost one
    // per queued source per cycle.
    setVerbose(false);
    const auto &f5 = exp::ExperimentRegistry::instance().get("F5");
    const auto &workloads = workload::WorkloadRegistry::instance();
    std::uint64_t lookups = 0;
    std::uint64_t visits = 0;
    std::uint64_t insts = 0;
    for (const auto &config : exp::suiteConfigs(
             f5.variants(),
             workload::WorkloadRegistry::evaluationSuite())) {
        func::Executor executor(
            workloads.build(config.workloadName, config.workload));
        mem::MemHierarchy hierarchy(config.l2, config.dram);
        OooCore core(config.core, &executor, &hierarchy);
        core.run();
        std::uint64_t run_lookups = core.rob().producerLookups();
        ASSERT_GT(core.committedInsts(), 0u);
        EXPECT_LE(static_cast<double>(run_lookups) /
                      static_cast<double>(core.committedInsts()),
                  2.5)
            << config.workloadName << " / " << config.label;
        lookups += run_lookups;
        visits += core.issueQueue().selectVisits();
        insts += core.committedInsts();
    }
    double lookups_per_inst = static_cast<double>(lookups) / insts;
    double visits_per_inst = static_cast<double>(visits) / insts;
    EXPECT_LE(lookups_per_inst, 2.5);
    // Every instruction but NOP/HALT/mode switches is visited at
    // least once, on the cycle it issues.
    EXPECT_GE(visits_per_inst, 0.5);
    RecordProperty("rob_lookups_per_inst", std::to_string(lookups_per_inst));
    RecordProperty("iq_visits_per_inst", std::to_string(visits_per_inst));
}

} // namespace
} // namespace cpe::cpu
