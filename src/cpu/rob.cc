#include "cpu/rob.hh"

#include "util/logging.hh"

namespace cpe::cpu {

Rob::Rob(std::size_t capacity) : window_(capacity), statGroup_("rob")
{
    statGroup_.addScalar("dispatched", &dispatched,
                         "instructions entering the window");
    statGroup_.addScalar("committed", &committed,
                         "instructions committed");
    statGroup_.addScalar("full_stalls", &fullStalls,
                         "dispatch attempts refused: ROB full");
}

TimingInst *
Rob::push(const TimingInst &inst)
{
    CPE_ASSERT(!full(), "push into a full ROB");
    SeqNum seq = inst.di.seq;
    if (!anchored_) {
        CPE_ASSERT(seq != 0, "sequence number 0 means 'no producer'");
        headSeq_ = seq;
        anchored_ = true;
    }
    CPE_ASSERT(seq == headSeq_ + size(),
               "non-contiguous dispatch: seq " << seq << " after "
                   << headSeq_ + size() - 1);
    TimingInst *stable = &window_.push_back(inst);
    ++dispatched;
    return stable;
}

void
Rob::popHead()
{
    CPE_ASSERT(!empty(), "popHead on empty ROB");
    window_.pop_front();
    ++headSeq_;
    ++committed;
}

} // namespace cpe::cpu
