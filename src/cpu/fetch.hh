/**
 * @file
 * The front end: fetches the committed-path instruction stream from
 * the trace source, modelling I-cache behaviour, fetch-group rules
 * (one line per cycle, groups end at taken branches), and branch
 * prediction.  On a mispredicted control instruction the front end
 * freezes — the wrong path is not simulated — and resumes a configured
 * redirect penalty after the branch resolves, which is the standard
 * trace-driven treatment.
 *
 * The fetch queue is a fixed ring of queueCapacity slots: fetch builds
 * each TimingInst in its slot, and dispatch copies it from there into
 * the reorder buffer, so the front end never allocates.
 */

#ifndef CPE_CPU_FETCH_HH
#define CPE_CPU_FETCH_HH

#include <array>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/pipeline_types.hh"
#include "cpu/ring.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"

namespace cpe::cpu {

/** Front-end parameters. */
struct FetchParams
{
    unsigned fetchWidth = 4;
    std::size_t queueCapacity = 16;
    /** Cycles from mispredict resolution to first corrected fetch. */
    unsigned redirectPenalty = 3;
    /**
     * Model wrong-path instruction fetch: while frozen on a
     * mispredicted branch, keep fetching down the (wrong) predicted
     * path one I-cache line per cycle, polluting the I-cache and
     * consuming L2 bandwidth the way a real front end does.  Off by
     * default (the classic trace-driven simplification).
     */
    bool modelWrongPathIFetch = false;
    mem::CacheParams icache{
        .name = "l1i", .sizeBytes = 16 * 1024, .assoc = 2,
        .lineBytes = 32};
};

/** The fetch stage. */
class FetchUnit
{
  public:
    FetchUnit(const FetchParams &params, func::TraceSource *trace,
              BranchPredictor *bpred, mem::MemHierarchy *next_level);

    /** Fetch up to fetchWidth instructions into the queue. */
    void tick(Cycle now);

    /** Instructions awaiting rename (rename pops from the front). */
    Ring<TimingInst> &queue() { return queue_; }

    /**
     * A mispredicted control instruction resolved; fetch resumes at
     * @p resume_cycle (resolution + redirect penalty, computed by the
     * caller).
     */
    void resolveBranch(SeqNum seq, Cycle resume_cycle);

    /** @return true when the trace has no more instructions. */
    bool traceExhausted() const
    {
        return exhausted_ && bufPos_ >= bufLen_;
    }

    /**
     * Phase-boundary squash (the cursor-repositioning contract of the
     * sampled mode): append every fetched-but-unconsumed committed
     * record — the fetch queue, then the fill buffer's remnant — to
     * @p pending in stream order, and reset all fetch state (queue,
     * buffer cursor, current line, branch/I-miss stalls, wrong-path
     * machinery).  The end-of-stream latch is also cleared: the
     * handed-back records precede whatever the source still holds, so
     * exhaustion is re-detected by the next short fill.  Statistics
     * and I-cache contents are left alone.  After this the unit
     * resumes fetching exactly at the stream position the caller's
     * @p pending (plus the source) represents.
     */
    void squashAndDrain(std::vector<func::DynInst> &pending);

    /** @return true while fetch is frozen on a mispredicted branch. */
    bool stalledOnBranch() const { return stalledOnSeq_ != 0; }

    mem::Cache &icache() { return icache_; }
    BranchPredictor &predictor() { return *bpred_; }

    stats::StatGroup &statGroup() { return statGroup_; }

    stats::Scalar fetchedInsts;
    stats::Scalar icacheMissCycles; ///< cycles frozen on I-misses
    stats::Scalar redirectCycles;   ///< cycles frozen on mispredicts
    stats::Scalar takenBreaks;      ///< groups ended by taken branches
    stats::Scalar lineBreaks;       ///< groups ended at line boundaries
    stats::Scalar queueFullBreaks;  ///< groups ended by a full queue
    stats::Scalar mispredicts;      ///< total control mispredictions
    stats::Scalar wrongPathLines;   ///< wrong-path I-lines fetched
    stats::Scalar wrongPathMisses;  ///< ...that missed the I-cache

  private:
    /** Ensure the buffer holds the next trace record; false at end. */
    bool peek();

    FetchParams params_;
    func::TraceSource *trace_;
    BranchPredictor *bpred_;
    mem::Cache icache_;
    mem::MemHierarchy *nextLevel_;

    Ring<TimingInst> queue_;

    /**
     * Block-consumption buffer: the front end pulls committed-path
     * records through TraceSource::fill() in batches, so a replayed
     * capture costs a bulk copy and a live executor one block of
     * execution per batch, instead of one virtual call per
     * instruction.
     */
    static constexpr std::size_t FillBatch = 64;
    std::array<func::DynInst, FillBatch> buffer_;
    std::size_t bufPos_ = 0;
    std::size_t bufLen_ = 0;
    bool exhausted_ = false;

    static constexpr Addr NoLine = ~Addr{0};
    Addr currentLine_ = NoLine;
    SeqNum stalledOnSeq_ = 0;
    /** Next wrong-path PC while frozen (0 = unknown target). */
    Addr wrongPathPc_ = 0;
    Cycle wrongPathBusyUntil_ = 0;
    Cycle resumeCycle_ = 0;
    /** What the frozen cycles are waiting for (stat attribution). */
    enum class WaitKind { None, ICache, Redirect } waitKind_ =
        WaitKind::None;

    stats::StatGroup statGroup_;
};

} // namespace cpe::cpu

#endif // CPE_CPU_FETCH_HH
