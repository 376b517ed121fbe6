#include "cpu/issue_queue.hh"

#include "util/logging.hh"

namespace cpe::cpu {

IssueQueue::IssueQueue(std::size_t capacity)
    : capacity_(capacity), statGroup_("iq")
{
    CPE_ASSERT(capacity >= 1, "issue queue needs at least one entry");
    entries_.reserve(capacity);
    statGroup_.addScalar("added", &added, "instructions dispatched");
    statGroup_.addScalar("full_stalls", &fullStalls,
                         "dispatch attempts refused: IQ full");
}

void
IssueQueue::add(TimingInst *inst, Rob &rob)
{
    CPE_ASSERT(!full(), "add to a full issue queue");
    // Stores issue their AGU on the address operand alone; the data
    // producer gates forwarding and commit, which look it up there.
    unsigned operands = inst->isStore() ? 1 : MaxSrcs;
    for (unsigned i = 0; i < operands; ++i) {
        SeqNum seq = inst->srcProducer[i];
        if (!seq || (i > 0 && seq == inst->srcProducer[0]))
            continue;
        TimingInst *producer = rob.find(seq);
        if (!producer)
            continue;  // committed: the value is architectural
        if (producer->done) {
            inst->readyAt = std::max(inst->readyAt, producer->doneCycle);
        } else {
            inst->nextWaiter[i] = producer->firstWaiter;
            producer->firstWaiter = inst;
            ++inst->pendingSrcs;
        }
    }
    entries_.push_back(inst);
    ++added;
}

} // namespace cpe::cpu
