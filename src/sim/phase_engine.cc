#include "sim/phase_engine.hh"

#include <algorithm>
#include <array>

#include "util/error.hh"
#include "util/logging.hh"

namespace cpe::sim {

bool
StitchedTraceSource::next(func::DynInst &out)
{
    if (pos_ < pending_.size()) {
        out = pending_[pos_++];
        if (pos_ == pending_.size()) {
            pending_.clear();
            pos_ = 0;
        }
        return true;
    }
    return backing_->next(out);
}

std::size_t
StitchedTraceSource::fill(func::DynInst *out, std::size_t max)
{
    std::size_t n = 0;
    std::size_t avail = pending_.size() - pos_;
    if (avail) {
        n = std::min(avail, max);
        std::copy(pending_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  pending_.begin() + static_cast<std::ptrdiff_t>(pos_ + n),
                  out);
        pos_ += n;
        if (pos_ == pending_.size()) {
            pending_.clear();
            pos_ = 0;
        }
    }
    // Top up from the backing source: a short return must mean the
    // stream has truly ended.
    if (n < max)
        n += backing_->fill(out + n, max - n);
    return n;
}

std::size_t
StitchedTraceSource::view(const func::DynInst *&out, std::size_t max)
{
    // Stream order: lend from the hand-back first; only once it is
    // drained may the backing source's storage show through.
    std::size_t avail = pending_.size() - pos_;
    if (avail) {
        out = pending_.data() + pos_;
        return std::min(avail, max);
    }
    return backing_->view(out, max);
}

void
StitchedTraceSource::advance(std::size_t n)
{
    std::size_t avail = pending_.size() - pos_;
    if (avail) {
        CPE_ASSERT(n <= avail, "advance past the lent hand-back span");
        pos_ += n;
        if (pos_ == pending_.size()) {
            pending_.clear();
            pos_ = 0;
        }
        return;
    }
    backing_->advance(n);
}

const func::WarmIndex *
StitchedTraceSource::warmIndex(unsigned iLineBytes,
                               unsigned dLineBytes, std::size_t &pos)
{
    // Hand-back records are walked one by one (they are few — an
    // in-flight window's worth); only the backing stream has a
    // precomputed index.
    if (pos_ < pending_.size()) {
        pos = 0;
        return nullptr;
    }
    return backing_->warmIndex(iLineBytes, dLineBytes, pos);
}

void
StitchedTraceSource::prepend(std::vector<func::DynInst> &&records)
{
    if (pos_ < pending_.size())
        records.insert(records.end(),
                       pending_.begin() + static_cast<std::ptrdiff_t>(pos_),
                       pending_.end());
    pending_ = std::move(records);
    pos_ = 0;
}

PhaseEngine::PhaseEngine(const SamplePlan &plan, cpu::OooCore &core,
                         StitchedTraceSource &source,
                         mem::MemHierarchy &hierarchy, double confidence)
    : plan_(plan),
      core_(core),
      source_(source),
      hierarchy_(hierarchy),
      confidence_(confidence)
{
    CPE_ASSERT(!plan_.prologue.empty() || !plan_.cycle.empty(),
               "empty sample plan");
    // A prologue-free plan (the periodic schedule) starts directly in
    // the cycle.
    inPrologue_ = !plan_.prologue.empty();
}

const Phase &
PhaseEngine::current() const
{
    return inPrologue_ ? plan_.prologue[phaseIdx_]
                       : plan_.cycle[phaseIdx_];
}

bool
PhaseEngine::advancePhase()
{
    if (inPrologue_) {
        ++phaseIdx_;
        if (phaseIdx_ < plan_.prologue.size())
            return true;
        inPrologue_ = false;
        phaseIdx_ = 0;
        return !plan_.cycle.empty();
    }
    if (plan_.cycle.empty())
        return false;
    phaseIdx_ = (phaseIdx_ + 1) % plan_.cycle.size();
    return true;
}

void
PhaseEngine::armBoundary()
{
    const Phase &phase = current();
    if (!phase.insts)
        return;  // to-end: the stream's end is the boundary
    core_.setCommitBoundary(
        core_.streamPos() + phase.insts,
        [this](Cycle now) { return onBoundary(now); });
}

bool
PhaseEngine::onBoundary(Cycle now)
{
    if (!advancePhase())
        return true;  // plan over: finish the stream as-is
    const Phase &next = current();
    if (next.kind == PhaseKind::FastForward) {
        if (measuring_)
            exitMeasure(now);
        return false;  // run() squashes and fast-forwards
    }
    // Detailed -> detailed transition, applied in-commit so the
    // boundary instruction is the last of its phase (exactly the old
    // warm-up reset's semantics).
    if (measuring_ && next.kind == PhaseKind::DetailedWarmup)
        exitMeasure(now);
    else if (!measuring_ && next.kind == PhaseKind::DetailedMeasure)
        enterMeasure(now);
    if (next.kind == PhaseKind::DetailedWarmup)
        core_.setPhaseLabel("warmup");
    armBoundary();
    return true;
}

void
PhaseEngine::enterMeasure(Cycle now)
{
    if (firstMeasure_) {
        // The old warm-up-complete order: core statistics + profiler,
        // then the shared memory-hierarchy statistics.
        core_.beginMeasurement(now);
        hierarchy_.statGroup().resetAll();
        firstMeasure_ = false;
    } else {
        restoreSnapshots();
        core_.resumeMeasurement(now);
    }
    intervalStartCycles_ = core_.measuredCycles();
    intervalStartInsts_ = core_.committedInsts();
    if (sampler_ && sampler_->phaseMode())
        sampler_->rebase(now);
    measuring_ = true;
    core_.setPhaseLabel("measure");
}

void
PhaseEngine::exitMeasure(Cycle now, bool complete)
{
    Cycle cycles = core_.measuredCycles() - intervalStartCycles_;
    std::uint64_t insts =
        core_.committedInsts() - intervalStartInsts_;
    // Accumulate CPI, not IPC: over equal-instruction intervals the
    // arithmetic mean of per-interval CPI equals the aggregate CPI of
    // the measured union, so the inverted estimate is unbiased.  A
    // mean of per-interval IPCs would overweight fast intervals
    // (mean-of-ratios bias, visibly inflating phase-y workloads).
    if (complete && insts)
        estimator_.add(static_cast<double>(cycles) /
                       static_cast<double>(insts));
    if (sampler_ && sampler_->phaseMode())
        sampler_->sampleAt(now);
    core_.pauseMeasurement(now);
    coreSnap_ = core_.statGroup().snapshot();
    hierSnap_ = hierarchy_.statGroup().snapshot();
    measuring_ = false;
}

void
PhaseEngine::restoreSnapshots()
{
    core_.statGroup().restore(coreSnap_);
    hierarchy_.statGroup().restore(hierSnap_);
}

std::uint64_t
PhaseEngine::jittered(std::uint64_t insts)
{
    // Strictly periodic sampling aliases with loop structure: when the
    // period is near a multiple of a workload's sweep length, every
    // interval lands at the same loop phase and the estimate is badly
    // biased despite a tight interval.  Spreading each fast-forward
    // leg uniformly over [3/4, 5/4) of its nominal length keeps the
    // mean sampling density while decorrelating the sample positions
    // (SMARTS's random-offset remedy).  The generator is a fixed-seed
    // LCG, so a rerun takes byte-identical samples.
    std::uint64_t half = insts / 2;
    if (!half)
        return insts;
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return insts - half / 2 + (rng_ >> 33) % half;
}

bool
PhaseEngine::fastForward(std::uint64_t insts)
{
    // Hand the in-flight window back to the stream, then consume
    // records warm-only.  The squash happens here — not at the
    // boundary hook — so a plan starting with FastForward (no window
    // yet) costs nothing.
    pendingScratch_.clear();
    core_.extractPending(pendingScratch_);
    source_.prepend(std::move(pendingScratch_));
    pendingScratch_.clear();

    // The detailed leg just squashed may have evicted the memoized
    // lines; a stale memo would silently skip re-warming them.
    lastILine_ = ~Addr{0};
    lastDLine_ = ~Addr{0};
    lastDLineDirty_ = false;

    constexpr std::size_t FillBatch = 4096;
    unsigned ilb = core_.fetch().icache().lineBytes();
    unsigned dlb = core_.dcache().l1d().lineBytes();
    std::uint64_t left = insts;
    while (left) {
        // Warm straight out of the source's own storage when it can
        // lend a span (replay captures and the hand-back buffer can);
        // the copy through ffBuffer_ is the fallback for live
        // execution.  A short — even zero — view does NOT mean end of
        // stream, only a short fill() does (the TraceSource contract).
        const func::DynInst *span = nullptr;
        std::size_t got =
            source_.view(span, static_cast<std::size_t>(left));
        if (got) {
            std::size_t pos = 0;
            const func::WarmIndex *index =
                source_.warmIndex(ilb, dlb, pos);
            if (index)
                warmCompacted(span, got, *index, pos);
            else
                warmSpan(span, got);
            source_.advance(got);
        } else {
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(FillBatch, left));
            if (ffBuffer_.size() < FillBatch)
                ffBuffer_.resize(FillBatch);
            got = source_.fill(ffBuffer_.data(), want);
            warmSpan(ffBuffer_.data(), got);
            if (got < want) {
                core_.advanceStream(got);
                ffInsts_ += got;
                return false;  // stream over
            }
        }
        core_.advanceStream(got);
        ffInsts_ += got;
        left -= got;
    }
    return true;
}

void
PhaseEngine::warmSpan(const func::DynInst *recs, std::size_t n)
{
    // Hoisted out of the per-record loop: these accessor chains are
    // several dependent loads each, and this loop is the whole cost of
    // a fast-forward leg.
    mem::Cache &icache = core_.fetch().icache();
    mem::Cache &l1d = core_.dcache().l1d();
    cpu::BranchPredictor &predictor = core_.predictor();
    for (std::size_t i = 0; i < n; ++i) {
        const func::DynInst &rec = recs[i];
        Addr iline = icache.lineAddr(rec.pc);
        if (iline != lastILine_) {
            lastILine_ = iline;
            if (!icache.warmAccess(iline, false))
                hierarchy_.warmLine(iline);
            // I-lines are never dirty; a displaced victim needs no
            // writeback warming.
        }
        if (rec.isControl())
            predictor.warm(rec.pc, rec.inst, rec.taken, rec.nextPc);
        if (rec.isMem()) {
            Addr dline = l1d.lineAddr(rec.memAddr);
            // Within a consecutive run of accesses to one line, only
            // the first access (and the first store, which dirties it)
            // can change cache state — skip the rest.
            if (dline == lastDLine_ &&
                (!rec.isStore() || lastDLineDirty_)) {
                continue;
            }
            lastDLine_ = dline;
            lastDLineDirty_ = rec.isStore();
            mem::Cache::FillResult fr;
            if (!l1d.warmAccess(dline, rec.isStore(), &fr)) {
                hierarchy_.warmLine(dline);
                if (fr.evicted && fr.evictedDirty)
                    hierarchy_.warmLine(fr.evictedAddr, true);
            }
        }
    }
}

void
PhaseEngine::warmCompacted(const func::DynInst *span, std::size_t n,
                           const func::WarmIndex &index,
                           std::size_t pos)
{
    // Replaying the command stream is state-exact with warmSpan over
    // the same records:
    //  - within the span, every run head (and first dirtying store)
    //    is a command, and the skipped records could only have
    //    re-probed a line the immediately preceding record just made
    //    most-recent — a state no-op;
    //  - at the span head the straddling run (head before the span,
    //    consumed by the preceding detailed leg or hand-back walk) has
    //    no command, so span[0] is warmed unconditionally.  That too
    //    matches: warmSpan would probe it (the memos were reset at
    //    fastForward entry), and when the preceding walk already
    //    touched the line the probe is a hit on an MRU line.
    // The one divergence left (both here and in warmSpan, in opposite
    // directions) is a line the squashed speculative window evicted
    // after its last committed access: a sub-line-per-leg effect on an
    // estimate that is already statistical.
    warmSpan(span, 1);
    auto before = [](const func::WarmCmd &cmd, std::size_t at) {
        return cmd.index < at;
    };
    auto it = std::lower_bound(index.cmds.begin(), index.cmds.end(),
                               pos + 1, before);
    auto stop = std::lower_bound(it, index.cmds.end(), pos + n, before);
    mem::Cache &icache = core_.fetch().icache();
    mem::Cache &l1d = core_.dcache().l1d();
    cpu::BranchPredictor &predictor = core_.predictor();
    // A Ctrl command reads its operands from the record it names, far
    // from the command stream in memory; fetching the records a few
    // dozen commands ahead keeps those reads from stalling the replay
    // on cache misses (without it the F13 legs run ~40% slower).
    constexpr std::ptrdiff_t Lookahead = 64;
    for (; it != stop; ++it) {
#ifdef __GNUC__
        if (stop - it > Lookahead)
            __builtin_prefetch(&span[it[Lookahead].index - pos]);
#endif
        switch (it->kind) {
          case func::WarmKind::ILine:
            if (!icache.warmAccess(it->a, false))
                hierarchy_.warmLine(it->a);
            break;
          case func::WarmKind::Ctrl: {
            const func::DynInst &rec = span[it->index - pos];
            predictor.warm(rec.pc, rec.inst, rec.taken, rec.nextPc);
            break;
          }
          case func::WarmKind::DLine: {
            mem::Cache::FillResult fr;
            if (!l1d.warmAccess(it->a, it->flag, &fr)) {
                hierarchy_.warmLine(it->a);
                if (fr.evicted && fr.evictedDirty)
                    hierarchy_.warmLine(fr.evictedAddr, true);
            }
            break;
          }
        }
    }
}

Cycle
PhaseEngine::run()
{
    bool stream_alive = true;
    while (stream_alive) {
        const Phase &phase = current();
        if (phase.kind == PhaseKind::FastForward) {
            stream_alive = fastForward(jittered(phase.insts));
            if (stream_alive && !advancePhase())
                break;
            continue;
        }
        if (phase.kind == PhaseKind::DetailedMeasure && !measuring_)
            enterMeasure(core_.cycles());
        else if (phase.kind == PhaseKind::DetailedWarmup)
            core_.setPhaseLabel("warmup");
        armBoundary();
        cpu::StopReason stop = core_.runDetailed();
        if (stop != cpu::StopReason::Boundary)
            break;  // Halted or Exhausted: the stream is over
        // onBoundary() already advanced the plan to the FastForward
        // phase the loop handles next.
    }
    Cycle end = core_.finishRun();
    if (measuring_) {
        // Stream ended mid-measurement: the partial interval's stats
        // still count (and include the post-HALT drain, matching the
        // full-detail definition of the measurement region), but it is
        // no steady-state sample, so the estimator skips it.
        exitMeasure(end, /*complete=*/false);
    } else if (!firstMeasure_) {
        // Stream ended outside a measurement: drop whatever the
        // trailing warm-up / fast-forward accumulated so final stats
        // are exactly the union of the measurement intervals.
        restoreSnapshots();
    }
    return end;
}

} // namespace cpe::sim
