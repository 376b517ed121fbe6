/**
 * @file
 * Types shared by the pipeline stages: the in-flight instruction record
 * that moves through fetch -> rename -> issue -> commit.
 */

#ifndef CPE_CPU_PIPELINE_TYPES_HH
#define CPE_CPU_PIPELINE_TYPES_HH

#include <cstdint>

#include "core/dcache_unit.hh"
#include "func/trace.hh"

namespace cpe::cpu {

/** Maximum register source operands of any instruction. */
constexpr unsigned MaxSrcs = 2;

/**
 * One in-flight dynamic instruction with its timing state.  Owned by
 * the ROB from dispatch to commit.
 */
struct TimingInst
{
    func::DynInst di;

    Cycle fetchCycle = 0;
    Cycle dispatchCycle = 0;
    Cycle issueCycle = 0;
    Cycle doneCycle = 0;
    Cycle commitCycle = 0;

    bool dispatched = false;
    bool issued = false;
    bool done = false;

    /**
     * Sequence numbers of the producing instructions for each source
     * register, or 0 when the value is already architectural (no
     * in-flight producer at rename time).
     *
     * For stores the slots have fixed meaning: [0] is the address
     * (base-register) producer and [1] the data producer.  A store
     * issues its AGU on [0] alone; [1] gates forwarding and commit.
     */
    SeqNum srcProducer[MaxSrcs] = {0, 0};

    /**
     * Wakeup state, kept by the issue queue from dispatch to issue.
     * Select takes the instruction once pendingSrcs == 0 and
     * readyAt <= now: readyAt is the latest doneCycle of its issued
     * producers, pendingSrcs the number still to issue.
     */
    Cycle readyAt = 0;
    unsigned pendingSrcs = 0;

    /**
     * Intrusive list of the consumers waiting for this instruction to
     * issue: the head is firstWaiter, and a consumer linked through its
     * source slot i continues in nextWaiter[i].  A consumer reading one
     * producer twice is linked once, through slot 0.
     */
    TimingInst *firstWaiter = nullptr;
    TimingInst *nextWaiter[MaxSrcs] = {nullptr, nullptr};

    /** Fetch compared prediction with the trace: this one was wrong. */
    bool mispredicted = false;

    /** Where the load's data came from (valid once issued). */
    core::LoadSource loadSource = core::LoadSource::CacheHit;

    bool isLoad() const { return di.isLoad(); }
    bool isStore() const { return di.isStore(); }
    bool isControl() const { return di.isControl(); }
};

} // namespace cpe::cpu

#endif // CPE_CPU_PIPELINE_TYPES_HH
