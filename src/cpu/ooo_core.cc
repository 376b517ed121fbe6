#include "cpu/ooo_core.hh"

#include <ostream>

#include "isa/disasm.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace cpe::cpu {

OooCore::OooCore(const CoreParams &params, func::TraceSource *trace,
                 mem::MemHierarchy *next_level)
    : params_(params),
      nextLevel_(next_level),
      bpred_(params.bpred),
      fetch_(params.fetch, trace, &bpred_, next_level),
      rob_(params.robSize),
      iq_(params.iqSize),
      fuPool_(params.fu),
      lsq_(params.lsq),
      dcache_(params.dcache, next_level),
      statGroup_("core")
{
    statGroup_.addChild(&fetch_.statGroup());
    statGroup_.addChild(&rename_.statGroup());
    statGroup_.addChild(&rob_.statGroup());
    statGroup_.addChild(&iq_.statGroup());
    statGroup_.addChild(&fuPool_.statGroup());
    statGroup_.addChild(&lsq_.statGroup());
    statGroup_.addChild(&dcache_.statGroup());

    statGroup_.addScalar("committed", &committed_,
                         "instructions committed");
    statGroup_.addScalar("committed_loads", &committedLoads,
                         "loads committed");
    statGroup_.addScalar("committed_stores", &committedStores,
                         "stores committed");
    statGroup_.addScalar("store_commit_stalls", &storeCommitStalls,
                         "commit cycles blocked handing off a store");
    statGroup_.addScalar("rob_empty_cycles", &robEmptyCycles,
                         "cycles with an empty window (frontend bound)");
    statGroup_.addScalar("commit_blocked_cycles", &commitBlockedCycles,
                         "cycles the window head was incomplete");
    statGroup_.addScalar("mode_switches", &modeSwitches,
                         "user/kernel transitions committed");
    statGroup_.addFormula(
        "ipc",
        [this]() { return ipc(); },
        "committed instructions per cycle");

    loadLatency.init(0, 128, 4);
    statGroup_.addDistribution("load_latency", &loadLatency,
                               "load issue-to-data latency (cycles)");
    robOccupancy.init(0, static_cast<std::int64_t>(params_.robSize) + 1,
                      8);
    statGroup_.addDistribution("rob_occupancy", &robOccupancy,
                               "window occupancy per cycle");
}

void
OooCore::commit(Cycle now)
{
    for (unsigned n = 0; n < params_.commitWidth; ++n) {
        TimingInst *head = rob_.head();
        if (!head) {
            if (n == 0) {
                ++robEmptyCycles;
                commitStall(0, 0, obs::StallRobEmpty);
            }
            return;
        }
        // The head commits once done; a store also needs its data.
        if (!head->done || head->doneCycle > now ||
            (head->isStore() &&
             !rob_.producerDone(head->srcProducer[1], now))) {
            if (n == 0) {
                ++commitBlockedCycles;
                commitStall(head->di.pc, 0, obs::StallHeadIncomplete);
            }
            return;
        }

        if (head->isStore()) {
            if (!dcache_.tryStore(head->di.memAddr, head->di.memSize,
                                  now, head->di.pc)) {
                ++storeCommitStalls;
                commitStall(head->di.pc, head->di.memAddr,
                            obs::StallStoreReject);
                return;
            }
            lsq_.commitStore(head);
            ++committedStores;
        } else if (head->isLoad()) {
            lsq_.commitLoad(head);
            ++committedLoads;
        }

        switch (head->di.inst.op) {
          case isa::Opcode::EMODE:
          case isa::Opcode::XMODE:
            dcache_.onModeSwitch();
            ++modeSwitches;
            break;
          case isa::Opcode::HALT:
            halted_ = true;
            break;
          default:
            break;
        }

        rename_.retire(*head);
        head->commitCycle = now;
        if (pipeTrace_) {
            *pipeTrace_ << "seq=" << head->di.seq
                        << " f=" << head->fetchCycle
                        << " d=" << head->dispatchCycle
                        << " i=" << head->issueCycle
                        << " c=" << head->doneCycle
                        << " r=" << head->commitCycle << "  "
                        << isa::disassemble(head->di.inst, head->di.pc)
                        << "\n";
        }
        ++committed_;
        ++totalCommitted_;
        lastCommitCycle_ = now;
        rob_.popHead();
        if (boundaryTarget_ && totalCommitted_ == boundaryTarget_) {
            boundaryTarget_ = 0;
            bool keep_going = boundaryHook_ ? boundaryHook_(now) : true;
            if (!keep_going) {
                // The next phase is not detailed: leave commit (and the
                // cycle) unfinished; runDetailed() exits with
                // StopReason::Boundary and the phase engine squashes
                // the in-flight window.
                boundaryExit_ = true;
                return;
            }
        }
        if (halted_)
            return;
    }
}

void
OooCore::commitStall(Addr pc, Addr addr, std::uint64_t cause)
{
    if (!probe_)
        return;
    obs::AttrScope attribution(probe_, pc);
    probe_->event(obs::EventKind::CommitStall, addr, cause);
}

void
OooCore::issue(Cycle now)
{
    iq_.select(now, params_.issueWidth, [&](TimingInst *inst) {
        isa::InstClass cls = inst->di.cls;
        if (inst->isLoad()) {
            if (!fuPool_.canIssue(cls, now))
                return false;
            if (!lsq_.tryIssueLoad(inst, dcache_, rob_, now))
                return false;  // structural/ordering reject: retry
            Cycle agu_done = fuPool_.tryIssue(cls, now);
            CPE_ASSERT(agu_done != 0, "AGU vanished between check/issue");
            // Completes at the doneCycle the LSQ set.
            loadLatency.sample(
                static_cast<std::int64_t>(inst->doneCycle - now));
        } else {
            Cycle done = fuPool_.tryIssue(cls, now);
            if (!done)
                return false;
            inst->doneCycle = done;
        }
        inst->issued = true;
        inst->issueCycle = now;
        inst->done = true;

        // A mispredicted control op resolving un-freezes the front end
        // after the redirect penalty.
        if (inst->mispredicted) {
            fetch_.resolveBranch(inst->di.seq,
                                 inst->doneCycle +
                                     params_.fetch.redirectPenalty);
        }
        return true;
    });
}

void
OooCore::dispatch(Cycle now)
{
    auto &fetch_queue = fetch_.queue();
    for (unsigned n = 0; n < params_.renameWidth; ++n) {
        if (fetch_queue.empty())
            return;
        TimingInst &front = fetch_queue.front();
        if (now < front.fetchCycle + params_.decodeLatency)
            return;  // still in the decode pipe
        if (rob_.full()) {
            ++rob_.fullStalls;
            return;
        }
        bool is_mem = front.di.isMem();
        if (is_mem && !lsq_.canDispatch(front.isStore())) {
            ++lsq_.dispatchStalls;
            return;
        }
        bool needs_iq = front.di.cls != isa::InstClass::System;
        if (needs_iq && iq_.full()) {
            ++iq_.fullStalls;
            return;
        }

        TimingInst *inst = rob_.push(front);
        fetch_queue.pop_front();
        rename_.rename(*inst);
        inst->dispatched = true;
        inst->dispatchCycle = now;

        if (!needs_iq) {
            // NOP/HALT/EMODE/XMODE: no execution resources.
            inst->issued = true;
            inst->issueCycle = now;
            inst->done = true;
            inst->doneCycle = now;
            continue;
        }
        iq_.add(inst, rob_);
        if (is_mem)
            lsq_.dispatch(inst);
    }
}

Json
OooCore::pipelineSnapshot(Cycle now)
{
    Json snapshot = Json::object();
    snapshot["cycle"] = now;
    snapshot["phase"] = phaseLabel_;
    snapshot["committed_insts"] = totalCommitted_;
    snapshot["last_commit_cycle"] = lastCommitCycle_;

    Json fetch = Json::object();
    fetch["queue_depth"] = fetch_.queue().size();
    fetch["pc"] = fetch_.queue().empty()
                      ? Json()
                      : Json(fetch_.queue().front().di.pc);
    fetch["stalled_on_branch"] = fetch_.stalledOnBranch();
    fetch["trace_exhausted"] = fetch_.traceExhausted();
    snapshot["fetch"] = std::move(fetch);

    Json rob = Json::object();
    rob["occupancy"] = rob_.size();
    rob["capacity"] = rob_.capacity();
    if (const TimingInst *head = rob_.head()) {
        Json head_json = Json::object();
        head_json["seq"] = head->di.seq;
        head_json["pc"] = head->di.pc;
        head_json["disasm"] = isa::disassemble(head->di.inst,
                                               head->di.pc);
        head_json["dispatched"] = head->dispatched;
        head_json["issued"] = head->issued;
        head_json["done"] = head->done;
        rob["head"] = std::move(head_json);
    }
    snapshot["rob"] = std::move(rob);

    Json iq = Json::object();
    iq["occupancy"] = iq_.size();
    iq["capacity"] = iq_.capacity();
    snapshot["issue_queue"] = std::move(iq);

    Json lsq = Json::object();
    lsq["loads"] = lsq_.loads();
    lsq["stores"] = lsq_.stores();
    snapshot["lsq"] = std::move(lsq);

    Json sb = Json::object();
    sb["occupancy"] = dcache_.storeBuffer().occupancy();
    sb["enabled"] = dcache_.storeBuffer().enabled();
    snapshot["store_buffer"] = std::move(sb);

    Json mshrs = Json::object();
    mshrs["occupancy"] = dcache_.mshrs().occupancy();
    mshrs["capacity"] = dcache_.mshrs().capacity();
    snapshot["mshrs"] = std::move(mshrs);

    return snapshot;
}

void
OooCore::tripWatchdog(const std::string &reason, Cycle now)
{
    Json snapshot = pipelineSnapshot(now);
    // Build the message before the throw expression: its two argument
    // initializations are indeterminately sequenced, so dumping the
    // snapshot inside one while the other moves it away would race.
    std::string message = Msg() << reason << "; pipeline snapshot: "
                                << snapshot.dump();
    throw ProgressError(message, std::move(snapshot));
}

StopReason
OooCore::runDetailed()
{
    lastCommitCycle_ = now_;
    while (!halted_) {
        if (probe_)
            probe_->advanceTo(now_);
        robOccupancy.sample(static_cast<std::int64_t>(rob_.size()));
        dcache_.beginCycle(now_);
        std::uint64_t committed_before = committed_.value();
        commit(now_);
        // A measurement reset can shrink the counter mid-commit; the
        // strict > guard keeps the event honest across that
        // discontinuity.
        if (probe_ && committed_.value() > committed_before)
            probe_->event(obs::EventKind::Commit, 0,
                          committed_.value() - committed_before);
        if (boundaryExit_) {
            // The boundary hook cut the cycle short; the later stages
            // never run and now_ stays put — the phase engine owns the
            // machine from here.
            boundaryExit_ = false;
            return StopReason::Boundary;
        }
        issue(now_);
        dispatch(now_);
        fetch_.tick(now_);
        dcache_.endCycle(now_);
        ++now_;
        if (sampler_)
            sampler_->tick(now_);

        if (now_ >= params_.maxCycles) {
            tripWatchdog(Msg() << "core exceeded its absolute cycle "
                                  "budget of " << params_.maxCycles,
                         now_);
        }
        if (params_.noCommitCycleLimit &&
            now_ - lastCommitCycle_ >= params_.noCommitCycleLimit) {
            tripWatchdog(
                Msg() << "no instruction committed for "
                      << (now_ - lastCommitCycle_)
                      << " cycles (watchdog limit "
                      << params_.noCommitCycleLimit << ")",
                now_);
        }
        if (!halted_ && fetch_.traceExhausted() && rob_.empty() &&
            fetch_.queue().empty()) {
            // Trace ended without HALT (partial-run mode).
            return StopReason::Exhausted;
        }
    }
    return StopReason::Halted;
}

Cycle
OooCore::finishRun()
{
    now_ = dcache_.drainAll(now_);
    if (probe_)
        probe_->advanceTo(now_);
    if (sampler_)
        sampler_->finalize(now_);
    return now_;
}

Cycle
OooCore::run()
{
    runDetailed();
    return finishRun();
}

void
OooCore::beginMeasurement(Cycle now)
{
    // Old warm-up-complete order: statistics first, then the profile,
    // then the cycle rebase.
    statGroup_.resetAll();
    if (probe_)
        probe_->beginMeasurement();
    measureStartCycle_ = now;
    measuredCycles_ = 0;
    measuring_ = true;
}

void
OooCore::pauseMeasurement(Cycle now)
{
    if (!measuring_)
        return;
    measuredCycles_ += now - measureStartCycle_;
    measuring_ = false;
}

void
OooCore::resumeMeasurement(Cycle now)
{
    if (measuring_)
        return;
    measureStartCycle_ = now;
    measuring_ = true;
}

void
OooCore::extractPending(std::vector<func::DynInst> &pending)
{
    const auto &window = rob_.window();
    for (std::size_t i = 0; i < window.size(); ++i)
        pending.push_back(window[i].di);
    rob_.clear();
    iq_.clear();
    lsq_.clear();
    rename_.clear();
    fetch_.squashAndDrain(pending);
    // Committed stores may still sit in the store buffer / MSHRs;
    // flush them so the fast-forwarded cache state starts clean.
    now_ = dcache_.drainAll(now_);
    lastCommitCycle_ = now_;
}

} // namespace cpe::cpu
