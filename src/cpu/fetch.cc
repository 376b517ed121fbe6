#include "cpu/fetch.hh"

#include "prog/builder.hh"
#include "util/logging.hh"

namespace cpe::cpu {

FetchUnit::FetchUnit(const FetchParams &params, func::TraceSource *trace,
                     BranchPredictor *bpred, mem::MemHierarchy *next_level)
    : params_(params), trace_(trace), bpred_(bpred),
      icache_(params.icache), nextLevel_(next_level),
      queue_(params.queueCapacity), statGroup_("fetch")
{
    CPE_ASSERT(trace_ && bpred_ && nextLevel_, "fetch wiring incomplete");
    statGroup_.addChild(&icache_.statGroup());
    statGroup_.addChild(&bpred_->statGroup());
    statGroup_.addScalar("insts", &fetchedInsts, "instructions fetched");
    statGroup_.addScalar("icache_miss_cycles", &icacheMissCycles,
                         "cycles frozen waiting for I-cache fills");
    statGroup_.addScalar("redirect_cycles", &redirectCycles,
                         "cycles frozen on mispredicted branches");
    statGroup_.addScalar("taken_breaks", &takenBreaks,
                         "fetch groups ended by a taken branch");
    statGroup_.addScalar("line_breaks", &lineBreaks,
                         "fetch groups ended at a line boundary");
    statGroup_.addScalar("queue_full_breaks", &queueFullBreaks,
                         "fetch groups ended by a full fetch queue");
    statGroup_.addScalar("mispredicts", &mispredicts,
                         "control mispredictions discovered at fetch");
    statGroup_.addScalar("wrong_path_lines", &wrongPathLines,
                         "wrong-path I-cache lines fetched");
    statGroup_.addScalar("wrong_path_misses", &wrongPathMisses,
                         "wrong-path I-lines that missed (pollution)");
}

bool
FetchUnit::peek()
{
    if (bufPos_ < bufLen_)
        return true;
    if (exhausted_)
        return false;
    bufLen_ = trace_->fill(buffer_.data(), FillBatch);
    bufPos_ = 0;
    // A short fill means end of stream (the TraceSource contract),
    // which saves the final empty refill call.
    if (bufLen_ < FillBatch)
        exhausted_ = true;
    return bufPos_ < bufLen_;
}

void
FetchUnit::squashAndDrain(std::vector<func::DynInst> &pending)
{
    // Stream order: the queue's records are older than the fill
    // buffer's remnant.
    for (std::size_t i = 0; i < queue_.size(); ++i)
        pending.push_back(queue_[i].di);
    queue_.clear();
    for (std::size_t i = bufPos_; i < bufLen_; ++i)
        pending.push_back(buffer_[i]);
    bufPos_ = bufLen_ = 0;
    exhausted_ = false;
    currentLine_ = NoLine;
    stalledOnSeq_ = 0;
    wrongPathPc_ = 0;
    wrongPathBusyUntil_ = 0;
    resumeCycle_ = 0;
    waitKind_ = WaitKind::None;
}

void
FetchUnit::resolveBranch(SeqNum seq, Cycle resume_cycle)
{
    if (stalledOnSeq_ != seq)
        return;
    stalledOnSeq_ = 0;
    wrongPathPc_ = 0;
    resumeCycle_ = resume_cycle;
    waitKind_ = WaitKind::Redirect;
    currentLine_ = NoLine;
}

void
FetchUnit::tick(Cycle now)
{
    if (stalledOnSeq_ != 0) {
        ++redirectCycles;
        // Wrong-path fetch: the front end does not know it is wrong
        // yet and keeps streaming lines from the predicted path.
        if (params_.modelWrongPathIFetch && wrongPathPc_ &&
            now >= wrongPathBusyUntil_) {
            Addr line = icache_.lineAddr(wrongPathPc_);
            ++wrongPathLines;
            if (!icache_.access(wrongPathPc_, false)) {
                ++wrongPathMisses;
                Cycle ready = nextLevel_->fetchLine(line, now);
                icache_.fill(line);  // pollution
                wrongPathBusyUntil_ = ready + 1;
            }
            wrongPathPc_ = line + icache_.lineBytes();
        }
        return;
    }
    if (now < resumeCycle_) {
        if (waitKind_ == WaitKind::ICache)
            ++icacheMissCycles;
        else if (waitKind_ == WaitKind::Redirect)
            ++redirectCycles;
        return;
    }
    waitKind_ = WaitKind::None;

    unsigned fetched = 0;
    while (fetched < params_.fetchWidth) {
        if (queue_.full()) {
            ++queueFullBreaks;
            break;
        }
        if (!peek())
            break;
        const func::DynInst &record = buffer_[bufPos_];

        // One I-cache line per fetch cycle.
        Addr line = icache_.lineAddr(record.pc);
        if (line != currentLine_) {
            if (fetched > 0) {
                ++lineBreaks;
                break;
            }
            if (!icache_.access(record.pc, false)) {
                Cycle ready = nextLevel_->fetchLine(line, now);
                icache_.fill(line);
                resumeCycle_ = ready + 1;
                waitKind_ = WaitKind::ICache;
                ++icacheMissCycles;
                break;
            }
            currentLine_ = line;
        }

        TimingInst &inst = queue_.emplace_back();
        inst.di = record;
        inst.fetchCycle = now;
        ++bufPos_;  // record stays valid: refills happen only in peek()
        ++fetched;
        ++fetchedInsts;

        if (inst.isControl()) {
            auto pred = bpred_->predict(record.pc, record.inst);
            Addr fallthrough = record.pc + isa::InstBytes;
            bool ok = BranchPredictor::correct(pred, record.taken,
                                               record.nextPc, fallthrough);
            // Train immediately: in this trace-driven model every
            // fetched control instruction commits (fetch freezes on
            // mispredicts, so there is no wrong path), and training
            // here keeps the history the counters were trained under
            // identical to the history they will be probed under —
            // the consistency real front ends maintain with
            // speculative history + checkpoint repair.
            bpred_->update(record.pc, record.inst, record.taken,
                           record.nextPc);
            if (!ok) {
                ++mispredicts;
                if (isa::isCondBranch(record.inst.op)) {
                    ++bpred_->dirMispredicts;
                } else if (record.inst.op == isa::Opcode::JALR) {
                    if (record.inst.rd == isa::ZeroReg &&
                        record.inst.rs1 == prog::reg::ra)
                        ++bpred_->rasMispredicts;
                    else
                        ++bpred_->targetMispredicts;
                } else {
                    // JAL target is PC-relative and always known.
                    ++bpred_->targetMispredicts;
                }
                inst.mispredicted = true;
            }
            if (!ok) {
                // Freeze on the wrong path until resolution, noting
                // where the (wrong) predicted path begins.
                stalledOnSeq_ = record.seq;
                if (params_.modelWrongPathIFetch) {
                    wrongPathPc_ = pred.taken && pred.targetKnown
                        ? pred.target
                        : (pred.taken ? 0 : fallthrough);
                    wrongPathBusyUntil_ = now + 1;
                }
                break;
            }
            if (record.taken) {
                ++takenBreaks;
                currentLine_ = NoLine;  // group ends; target next cycle
                break;
            }
            continue;
        }

        if (record.inst.op == isa::Opcode::HALT)
            break;
    }
}

} // namespace cpe::cpu
