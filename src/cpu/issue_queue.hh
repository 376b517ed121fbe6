/**
 * @file
 * The issue queue: dispatched-but-unissued instructions awaiting
 * operands and a functional unit.
 *
 * Wakeup is by producer completion.  At dispatch each issue operand
 * either folds its already-issued producer's doneCycle into the
 * consumer's readyAt or links the consumer into the producer's waiter
 * list; a producer walks that list the moment it issues, so select
 * only tests two fields per entry and never looks anything up.
 * Selection is oldest-first across the whole queue, bounded by the
 * machine's issue width, and compacts the queue in the same pass.
 */

#ifndef CPE_CPU_ISSUE_QUEUE_HH
#define CPE_CPU_ISSUE_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cpu/pipeline_types.hh"
#include "cpu/rob.hh"
#include "stats/stats.hh"

namespace cpe::cpu {

/** The unified issue queue. */
class IssueQueue
{
  public:
    explicit IssueQueue(std::size_t capacity);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * Add a dispatched instruction (pointer owned by the ROB) and
     * resolve its issue operands — every source, or a store's address
     * source alone — against the producers in @p rob.
     */
    void add(TimingInst *inst, Rob &rob);

    /** Instructions in age order. */
    const std::vector<TimingInst *> &entries() const { return entries_; }

    /**
     * One select pass at @p now: visit entries oldest-first until
     * @p width have issued, offering each ready one to
     * @p try_issue(TimingInst *), which returns whether it issued
     * (and, if so, has set the instruction's doneCycle).  An issued
     * entry leaves the queue and wakes its waiters at once, so a
     * younger consumer later in the same pass already sees it.
     */
    template <typename TryIssue>
    void
    select(Cycle now, unsigned width, TryIssue &&try_issue)
    {
        std::size_t kept = 0;
        std::size_t next = 0;
        unsigned issued = 0;
        for (; next < entries_.size() && issued < width; ++next) {
            TimingInst *inst = entries_[next];
            ++selectVisits_;
            if (inst->pendingSrcs == 0 && inst->readyAt <= now &&
                try_issue(inst)) {
                ++issued;
                wakeWaiters(inst);
                continue;
            }
            entries_[kept++] = inst;
        }
        // Close the gap; entries past the width cut keep their order.
        entries_.erase(entries_.begin() + kept, entries_.begin() + next);
    }

    /** Phase-boundary squash: drop every entry. */
    void clear() { entries_.clear(); }

    /** Entries select() has examined so far — a work counter, outside
     *  the StatGroup (never reset, never dumped). */
    std::uint64_t selectVisits() const { return selectVisits_; }

    stats::StatGroup &statGroup() { return statGroup_; }

    stats::Scalar added;
    stats::Scalar fullStalls;  ///< dispatch attempts refused: IQ full

  private:
    /** @p producer just issued: hand its doneCycle to every waiter. */
    static void
    wakeWaiters(TimingInst *producer)
    {
        static_assert(MaxSrcs == 2, "a waiter's link slot is 0 or 1");
        TimingInst *waiter = producer->firstWaiter;
        while (waiter) {
            unsigned slot =
                waiter->srcProducer[0] == producer->di.seq ? 0 : 1;
            waiter->readyAt =
                std::max(waiter->readyAt, producer->doneCycle);
            --waiter->pendingSrcs;
            waiter = waiter->nextWaiter[slot];
        }
        producer->firstWaiter = nullptr;
    }

    std::size_t capacity_;
    std::vector<TimingInst *> entries_;  ///< kept in age order
    std::uint64_t selectVisits_ = 0;
    stats::StatGroup statGroup_;
};

} // namespace cpe::cpu

#endif // CPE_CPU_ISSUE_QUEUE_HH
