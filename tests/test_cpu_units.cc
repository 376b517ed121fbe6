/**
 * @file
 * Unit tests for the pipeline building blocks: rename map, ring ROB,
 * issue-queue wakeup and select, functional-unit pool, and the fetch
 * unit driven by a recorded trace.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/fetch.hh"
#include "cpu/func_units.hh"
#include "cpu/issue_queue.hh"
#include "cpu/lsq.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "func/executor.hh"
#include "prog/builder.hh"

namespace cpe::cpu {
namespace {

using namespace prog::reg;

TimingInst
makeInst(SeqNum seq, isa::Inst op)
{
    TimingInst inst;
    inst.di.seq = seq;
    inst.di.inst = op;
    inst.di.cls = isa::classOf(op.op);
    return inst;
}

TEST(Rename, TracksRawDependencies)
{
    RenameStage rename;
    // i1: add x5 = x1 + x2 ; i2: add x6 = x5 + x5 ; i3: add x5 = x6+x0
    auto i1 = makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0});
    auto i2 = makeInst(2, {isa::Opcode::ADD, 6, 5, 5, 0});
    auto i3 = makeInst(3, {isa::Opcode::ADD, 5, 6, 0, 0});
    rename.rename(i1);
    rename.rename(i2);
    rename.rename(i3);
    EXPECT_EQ(i1.srcProducer[0], 0u);   // architectural
    EXPECT_EQ(i2.srcProducer[0], 1u);   // produced by i1 (dedup'd)
    EXPECT_EQ(i3.srcProducer[0], 2u);

    // i4 reads x5: the *youngest* writer (i3) wins.
    auto i4 = makeInst(4, {isa::Opcode::ADD, 7, 5, 0, 0});
    rename.rename(i4);
    EXPECT_EQ(i4.srcProducer[0], 3u);

    // After i3 retires, x5 is architectural again.
    rename.retire(i3);
    auto i5 = makeInst(5, {isa::Opcode::ADD, 8, 5, 0, 0});
    rename.rename(i5);
    EXPECT_EQ(i5.srcProducer[0], 0u);
}

TEST(Rename, StoreSlotsAreAddrThenData)
{
    RenameStage rename;
    auto addr_prod = makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0});
    auto data_prod = makeInst(2, {isa::Opcode::ADD, 6, 1, 2, 0});
    rename.rename(addr_prod);
    rename.rename(data_prod);
    // sd x6, 0(x5)
    auto store = makeInst(3, {isa::Opcode::SD, isa::NoReg, 5, 6, 0});
    rename.rename(store);
    EXPECT_EQ(store.srcProducer[0], 1u);  // address
    EXPECT_EQ(store.srcProducer[1], 2u);  // data
}

TEST(Rob, InOrderCommitAndProducerLookup)
{
    Rob rob(4);
    EXPECT_TRUE(rob.empty());
    auto *a = rob.push(makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0}));
    auto *b = rob.push(makeInst(2, {isa::Opcode::ADD, 6, 5, 0, 0}));
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_EQ(rob.head(), a);

    // Producer not done yet.
    EXPECT_FALSE(rob.producerDone(1, 100));
    a->done = true;
    a->doneCycle = 50;
    EXPECT_FALSE(rob.producerDone(1, 49));
    EXPECT_TRUE(rob.producerDone(1, 50));
    // Unknown/committed producers count as done; seq 0 always done.
    EXPECT_TRUE(rob.producerDone(0, 0));
    EXPECT_TRUE(rob.producerDone(999, 0));

    rob.popHead();
    EXPECT_EQ(rob.head(), b);
    EXPECT_TRUE(rob.producerDone(1, 0));  // committed
}

TEST(Rob, CapacityAndStability)
{
    Rob rob(3);
    std::vector<TimingInst *> ptrs;
    for (SeqNum seq = 1; seq <= 3; ++seq)
        ptrs.push_back(rob.push(makeInst(seq, {isa::Opcode::NOP,
                                               isa::NoReg, isa::NoReg,
                                               isa::NoReg, 0})));
    EXPECT_TRUE(rob.full());
    // Pointers must stay valid across pop/push churn.
    rob.popHead();
    rob.push(makeInst(4, {isa::Opcode::NOP, isa::NoReg, isa::NoReg,
                          isa::NoReg, 0}));
    EXPECT_EQ(ptrs[1]->di.seq, 2u);
    EXPECT_EQ(ptrs[2]->di.seq, 3u);
}

TEST(Rob, FindInWindowCommittedBeyondTailAndZero)
{
    Rob rob(4);
    EXPECT_EQ(rob.find(1), nullptr);  // nothing dispatched yet
    for (SeqNum seq = 10; seq <= 13; ++seq)
        rob.push(makeInst(seq, {isa::Opcode::ADD, 5, 1, 2, 0}));
    rob.popHead();  // seq 10 commits
    EXPECT_EQ(rob.find(10), nullptr);   // committed
    EXPECT_EQ(rob.find(3), nullptr);    // committed long ago
    EXPECT_EQ(rob.find(0), nullptr);    // "no producer"
    EXPECT_EQ(rob.find(14), nullptr);   // beyond the tail
    ASSERT_NE(rob.find(11), nullptr);
    EXPECT_EQ(rob.find(11)->di.seq, 11u);
    EXPECT_EQ(rob.find(13)->di.seq, 13u);
    EXPECT_EQ(rob.find(11), rob.head());
    EXPECT_TRUE(rob.producerDone(10, 0));
    EXPECT_FALSE(rob.producerDone(12, 1000));
}

TEST(Rob, RingWrapsWhileIqAndLsqHoldPointers)
{
    // A window of 4 cycled through 11 instructions: every slot is
    // reused twice while the issue queue and the load/store queue
    // hold pointers into it.
    Rob rob(4);
    IssueQueue iq(4);
    Lsq lsq(LsqParams{});
    std::vector<TimingInst *> held;
    for (SeqNum seq = 1; seq <= 11; ++seq) {
        if (rob.full()) {
            TimingInst *head = rob.head();
            ASSERT_EQ(head->di.seq, seq - 4);
            lsq.commitLoad(head);
            rob.popHead();
            held.erase(held.begin());
        }
        TimingInst load = makeInst(seq, {isa::Opcode::LD, 5, 1, 0, 0});
        TimingInst *inst = rob.push(load);
        iq.add(inst, rob);
        lsq.dispatch(inst);
        held.push_back(inst);
        for (std::size_t i = 0; i < held.size(); ++i) {
            ASSERT_EQ(held[i], rob.find(held[i]->di.seq));
            ASSERT_EQ(rob.window()[i].di.seq, held[i]->di.seq);
        }
        ASSERT_EQ(lsq.loads(), held.size());
        // Select takes the oldest entry each time round.
        iq.select(seq, 1, [](TimingInst *issued) {
            issued->issued = issued->done = true;
            issued->doneCycle = issued->di.seq + 1;
            return true;
        });
        EXPECT_TRUE(inst->issued) << "seq " << seq;
    }
    EXPECT_EQ(iq.size(), 0u);
    EXPECT_EQ(rob.head()->di.seq, 8u);
    EXPECT_EQ(rob.find(11), held.back());
}

TEST(Rob, ClearReanchorsAtAnyNonzeroSeq)
{
    Rob rob(4);
    rob.push(makeInst(5, {isa::Opcode::ADD, 5, 1, 2, 0}));
    rob.push(makeInst(6, {isa::Opcode::ADD, 6, 1, 2, 0}));
    rob.clear();
    EXPECT_TRUE(rob.empty());
    EXPECT_EQ(rob.find(5), nullptr);
    // A phase boundary restarts the stream somewhere else entirely.
    TimingInst *restart =
        rob.push(makeInst(1000, {isa::Opcode::ADD, 5, 1, 2, 0}));
    rob.push(makeInst(1001, {isa::Opcode::ADD, 6, 1, 2, 0}));
    EXPECT_EQ(rob.find(1000), restart);
    EXPECT_EQ(rob.find(1001)->di.seq, 1001u);
    EXPECT_EQ(rob.find(6), nullptr);
}

TEST(RobDeathTest, NonContiguousPushPanics)
{
    Rob rob(4);
    rob.push(makeInst(1, {isa::Opcode::ADD, 5, 1, 2, 0}));
    EXPECT_DEATH(rob.push(makeInst(3, {isa::Opcode::ADD, 6, 1, 2, 0})),
                 "non-contiguous dispatch: seq 3 after 1");
}

/** Select driver for the wakeup tests: issues every offered entry
 *  with a fixed latency and records the order. */
struct SelectRig
{
    Rob rob{8};
    IssueQueue iq{8};
    std::vector<SeqNum> order;

    TimingInst *
    dispatch(SeqNum seq, isa::Inst op, SeqNum src0, SeqNum src1 = 0)
    {
        TimingInst inst = makeInst(seq, op);
        inst.srcProducer[0] = src0;
        inst.srcProducer[1] = src1;
        TimingInst *stable = rob.push(inst);
        iq.add(stable, rob);
        return stable;
    }

    void
    cycle(Cycle now, unsigned latency = 3, unsigned width = 4)
    {
        iq.select(now, width, [&](TimingInst *inst) {
            inst->issued = inst->done = true;
            inst->issueCycle = now;
            inst->doneCycle = now + latency;
            order.push_back(inst->di.seq);
            return true;
        });
    }
};

TEST(IssueQueueTest, SelectIsOldestFirstAndCompactsInPlace)
{
    SelectRig rig;
    for (SeqNum seq = 1; seq <= 4; ++seq)
        rig.dispatch(seq, {isa::Opcode::ADD, 5, 1, 2, 0}, 0);
    EXPECT_EQ(rig.iq.entries()[0]->di.seq, 1u);
    EXPECT_EQ(rig.iq.entries()[3]->di.seq, 4u);

    // Width 2: the two oldest issue, the rest keep their order.
    rig.cycle(0, 1, 2);
    EXPECT_EQ(rig.order, (std::vector<SeqNum>{1, 2}));
    ASSERT_EQ(rig.iq.size(), 2u);
    EXPECT_EQ(rig.iq.entries()[0]->di.seq, 3u);
    EXPECT_EQ(rig.iq.entries()[1]->di.seq, 4u);
    EXPECT_FALSE(rig.iq.full());

    // A blocked older entry stays put while a younger one issues.
    rig.order.clear();
    rig.iq.select(1, 4, [&](TimingInst *inst) {
        if (inst->di.seq == 3)
            return false;  // e.g. no free unit
        inst->issued = inst->done = true;
        inst->doneCycle = 2;
        rig.order.push_back(inst->di.seq);
        return true;
    });
    EXPECT_EQ(rig.order, (std::vector<SeqNum>{4}));
    ASSERT_EQ(rig.iq.size(), 1u);
    EXPECT_EQ(rig.iq.entries()[0]->di.seq, 3u);
    EXPECT_EQ(rig.iq.selectVisits(), 4u);  // 2 + 2: stops at width
}

TEST(Wakeup, ConsumerReadyAtExactlyTheProducersDoneCycle)
{
    SelectRig rig;
    TimingInst *producer =
        rig.dispatch(1, {isa::Opcode::MUL, 5, 1, 2, 0}, 0);
    TimingInst *consumer =
        rig.dispatch(2, {isa::Opcode::ADD, 6, 5, 1, 0}, 1);
    EXPECT_EQ(consumer->pendingSrcs, 1u);  // linked, not yet ready

    rig.cycle(10);  // producer issues; done at 13
    EXPECT_EQ(producer->doneCycle, 13u);
    EXPECT_EQ(consumer->pendingSrcs, 0u);
    EXPECT_EQ(consumer->readyAt, 13u);
    rig.cycle(11);
    rig.cycle(12);
    EXPECT_EQ(rig.order, (std::vector<SeqNum>{1}));
    rig.cycle(13);
    EXPECT_EQ(rig.order, (std::vector<SeqNum>{1, 2}));
    EXPECT_EQ(consumer->issueCycle, 13u);

    // A consumer dispatched after its producer issued folds the
    // doneCycle in at dispatch instead of waiting.
    TimingInst *late = rig.dispatch(3, {isa::Opcode::ADD, 7, 6, 0, 0}, 2);
    EXPECT_EQ(late->pendingSrcs, 0u);
    EXPECT_EQ(late->readyAt, 16u);
}

TEST(Wakeup, BothSourcesFromOneProducer)
{
    SelectRig rig;
    rig.dispatch(1, {isa::Opcode::MUL, 5, 1, 2, 0}, 0);
    // add x6 = x5 + x5: one link, one wakeup.
    TimingInst *consumer =
        rig.dispatch(2, {isa::Opcode::ADD, 6, 5, 5, 0}, 1, 1);
    EXPECT_EQ(consumer->pendingSrcs, 1u);
    rig.cycle(0);
    EXPECT_EQ(consumer->pendingSrcs, 0u);
    EXPECT_EQ(consumer->readyAt, 3u);
    rig.cycle(2);
    EXPECT_FALSE(consumer->issued);
    rig.cycle(3);
    EXPECT_TRUE(consumer->issued);
}

TEST(Wakeup, StoreIssuesOnItsAddressProducerAlone)
{
    SelectRig rig;
    TimingInst *addr = rig.dispatch(1, {isa::Opcode::ADD, 5, 1, 2, 0}, 0);
    TimingInst *data = rig.dispatch(2, {isa::Opcode::MUL, 6, 1, 2, 0}, 0);
    // sd x6, 0(x5): address from seq 1, data from seq 2.
    TimingInst *store =
        rig.dispatch(3, {isa::Opcode::SD, isa::NoReg, 5, 6, 0}, 1, 2);
    EXPECT_EQ(store->pendingSrcs, 1u);  // the address operand only

    // Only the address producer issues (the data producer is refused
    // a unit); the store follows once the address is ready.
    auto only_addr = [&](Cycle now) {
        rig.iq.select(now, 4, [&](TimingInst *inst) {
            if (inst == data)
                return false;
            inst->issued = inst->done = true;
            inst->doneCycle = now + 1;
            return true;
        });
    };
    only_addr(0);
    EXPECT_TRUE(addr->issued);
    EXPECT_FALSE(store->issued);
    only_addr(1);
    EXPECT_TRUE(store->issued);
    EXPECT_FALSE(data->issued);
    // Forwarding and commit still see the data as outstanding.
    EXPECT_FALSE(rig.rob.producerDone(store->srcProducer[1], 100));
}

TEST(FuPoolTest, PipelinedThroughput)
{
    FuPoolParams params;
    params.intAlu = {1, 1, true};
    FuPool pool(params);
    // One ALU, pipelined: one issue per cycle.
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntAlu, 10), 11u);
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntAlu, 10), 0u);
    EXPECT_TRUE(pool.canIssue(isa::InstClass::IntAlu, 11));
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntAlu, 11), 12u);
}

TEST(FuPoolTest, NonPipelinedOccupancy)
{
    FuPoolParams params;
    params.intDiv = {1, 20, false};
    FuPool pool(params);
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntDiv, 0), 20u);
    EXPECT_FALSE(pool.canIssue(isa::InstClass::IntDiv, 10));
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntDiv, 10), 0u);
    EXPECT_EQ(pool.structuralStalls.value(), 1u);
    EXPECT_EQ(pool.tryIssue(isa::InstClass::IntDiv, 20), 40u);
}

TEST(FuPoolTest, ClassMappingAndLatency)
{
    FuPool pool(FuPoolParams{});
    EXPECT_EQ(pool.latency(isa::InstClass::IntAlu), 1u);
    EXPECT_EQ(pool.latency(isa::InstClass::Branch), 1u);  // shares ALUs
    EXPECT_GT(pool.latency(isa::InstClass::FpMul), 1u);
    EXPECT_GT(pool.latency(isa::InstClass::IntDiv),
              pool.latency(isa::InstClass::IntMul));
    // Loads and stores share the AGUs.
    EXPECT_TRUE(pool.canIssue(isa::InstClass::Load, 0));
    EXPECT_TRUE(pool.canIssue(isa::InstClass::Store, 0));
}

// --- Fetch unit -------------------------------------------------------

struct FetchRig
{
    prog::Program program;
    func::Executor executor;
    BranchPredictor bpred;
    mem::MemHierarchy hierarchy;
    FetchUnit fetch;

    explicit FetchRig(prog::Program prog,
                      FetchParams params = FetchParams{})
        : program(std::move(prog)), executor(program),
          bpred(BranchPredictorParams{}),
          hierarchy(mem::L2Params{}, mem::DramParams{}),
          fetch(params, &executor, &bpred, &hierarchy)
    {
    }
};

prog::Program
straightLine(unsigned count)
{
    prog::Builder b("straight");
    for (unsigned i = 0; i < count; ++i)
        b.addi(t0, t0, 1);
    b.halt();
    return b.build();
}

TEST(Fetch, WidthLimitAndQueueing)
{
    FetchRig rig(straightLine(10));
    Cycle now = 0;
    // First access misses the I-cache: nothing fetched yet.
    rig.fetch.tick(now);
    EXPECT_TRUE(rig.fetch.queue().empty());
    EXPECT_GT(rig.fetch.icacheMissCycles.value(), 0u);

    // Wait out the fill, then groups of fetchWidth arrive per cycle.
    for (now = 1; now < 500 && rig.fetch.queue().empty(); ++now)
        rig.fetch.tick(now);
    EXPECT_LE(rig.fetch.queue().size(), 4u);
    std::size_t before = rig.fetch.queue().size();
    rig.fetch.tick(now);
    EXPECT_LE(rig.fetch.queue().size() - before, 4u);
}

TEST(Fetch, StopsAtQueueCapacity)
{
    FetchParams params;
    params.queueCapacity = 6;
    FetchRig rig(straightLine(40), params);
    for (Cycle now = 0; now < 500; ++now)
        rig.fetch.tick(now);
    EXPECT_LE(rig.fetch.queue().size(), 6u);
    EXPECT_GT(rig.fetch.queueFullBreaks.value(), 0u);
}

TEST(Fetch, FreezesOnMispredictUntilResolved)
{
    // A data-dependent branch the predictor cannot know cold: first
    // encounter of a taken branch predicted not-taken.
    prog::Builder b("br");
    prog::Label target = b.newLabel();
    b.loadImm(t0, 1);
    b.bne(t0, zero, target);  // taken, cold predictor says not-taken
    b.addi(t1, t1, 1);        // wrong path (never committed)
    b.bind(target);
    b.addi(t2, t2, 1);
    b.halt();
    FetchRig rig(b.build());

    // Run until the branch has been fetched.
    Cycle now = 0;
    SeqNum branch_seq = 0;
    for (; now < 1000 && !branch_seq; ++now) {
        rig.fetch.tick(now);
        const auto &queue = rig.fetch.queue();
        for (std::size_t i = 0; i < queue.size(); ++i)
            if (queue[i].mispredicted)
                branch_seq = queue[i].di.seq;
    }
    ASSERT_NE(branch_seq, 0u);
    EXPECT_TRUE(rig.fetch.stalledOnBranch());

    // Frozen: further ticks fetch nothing.
    std::size_t frozen_size = rig.fetch.queue().size();
    rig.fetch.tick(now);
    rig.fetch.tick(now + 1);
    EXPECT_EQ(rig.fetch.queue().size(), frozen_size);

    // Resolution un-freezes at the given cycle.
    rig.fetch.resolveBranch(branch_seq, now + 5);
    rig.fetch.tick(now + 4);
    EXPECT_EQ(rig.fetch.queue().size(), frozen_size);
    rig.fetch.tick(now + 5);
    EXPECT_GT(rig.fetch.queue().size(), frozen_size);
    // The next fetched instruction is the branch target (committed
    // path), not the wrong path.
    const auto &resumed = rig.fetch.queue()[frozen_size];
    EXPECT_EQ(resumed.di.inst.op, isa::Opcode::ADDI);
    EXPECT_EQ(resumed.di.inst.rd, t2);
}

TEST(Fetch, WrongPathFetchPollutesICache)
{
    // A cold taken branch far forward: while frozen, the wrong-path
    // front end streams fall-through lines through the I-cache.
    prog::Builder b("wp");
    prog::Label target = b.newLabel();
    b.loadImm(t0, 1);
    b.bne(t0, zero, target);   // cold predictor: not-taken (wrong)
    for (int i = 0; i < 64; ++i)
        b.nop();               // wrong path: several I-lines
    b.bind(target);
    b.addi(t2, t2, 1);
    b.halt();
    prog::Program program = b.build();

    FetchParams params;
    params.modelWrongPathIFetch = true;
    FetchRig rig(std::move(program), params);

    Cycle now = 0;
    for (; now < 2000 && !rig.fetch.stalledOnBranch(); ++now)
        rig.fetch.tick(now);
    ASSERT_TRUE(rig.fetch.stalledOnBranch());

    // Let the wrong path run for a while.
    std::uint64_t misses_before = rig.fetch.icache().misses.value();
    for (Cycle t = now; t < now + 400; ++t)
        rig.fetch.tick(t);
    EXPECT_GT(rig.fetch.wrongPathLines.value(), 2u);
    EXPECT_GT(rig.fetch.wrongPathMisses.value(), 0u);
    EXPECT_GT(rig.fetch.icache().misses.value(), misses_before);

    // Resolution stops the wrong path and fetch resumes correctly.
    std::uint64_t wp_lines = rig.fetch.wrongPathLines.value();
    rig.fetch.resolveBranch(2, now + 401);
    // The target line is cold (the wrong path went the other way), so
    // allow the I-miss to resolve.
    bool fetched_target = false;
    for (Cycle t = now + 401; t < now + 900 && !fetched_target; ++t) {
        rig.fetch.tick(t);
        const auto &queue = rig.fetch.queue();
        for (std::size_t i = 0; i < queue.size(); ++i)
            fetched_target |= queue[i].di.inst.op == isa::Opcode::ADDI &&
                              queue[i].di.inst.rd == t2;
    }
    EXPECT_EQ(rig.fetch.wrongPathLines.value(), wp_lines);
    EXPECT_TRUE(fetched_target)
        << "fetch resumed somewhere other than the branch target";
}

TEST(Fetch, TraceExhaustion)
{
    FetchRig rig(straightLine(2));
    for (Cycle now = 0; now < 500 && !rig.fetch.traceExhausted(); ++now)
        rig.fetch.tick(now);
    EXPECT_TRUE(rig.fetch.traceExhausted());
    EXPECT_EQ(rig.fetch.queue().size(), 3u);  // 2 addi + halt
}

} // namespace
} // namespace cpe::cpu
