/**
 * @file
 * Reorder buffer: owns every in-flight TimingInst, provides in-order
 * commit, and finds producers by sequence number.
 *
 * The window is a fixed ring of `capacity` slots.  Dispatch is in
 * stream order, so the window holds a seq-contiguous run and the
 * instruction with sequence number s sits at ring index s - headSeq:
 * lookup is a subtract and a compare, and "already committed" is
 * s < headSeq.  A slot is reused only after its instruction commits,
 * so the raw TimingInst pointers handed to the issue queue and LSQ
 * stay valid for the instruction's whole window lifetime.
 */

#ifndef CPE_CPU_ROB_HH
#define CPE_CPU_ROB_HH

#include <cstdint>
#include <utility>

#include "cpu/pipeline_types.hh"
#include "cpu/ring.hh"
#include "stats/stats.hh"

namespace cpe::cpu {

/** The reorder buffer. */
class Rob
{
  public:
    explicit Rob(std::size_t capacity);

    bool full() const { return window_.full(); }
    bool empty() const { return window_.empty(); }
    std::size_t size() const { return window_.size(); }
    std::size_t capacity() const { return window_.capacity(); }

    /**
     * Insert at the tail (dispatch); @return the stable pointer.  The
     * sequence number must follow the tail's (panics otherwise),
     * except on the first push after construction or clear(), which
     * anchors the window at any nonzero sequence number.
     */
    TimingInst *push(const TimingInst &inst);

    /** Oldest in-flight instruction, or nullptr. */
    TimingInst *head() { return empty() ? nullptr : &window_.front(); }

    /** Remove the head (commit). */
    void popHead();

    /**
     * The in-flight instruction with sequence number @p seq, or
     * nullptr when it is not in the window: already committed, not
     * yet dispatched, or 0 (no producer).  Counts one producer lookup.
     */
    const TimingInst *
    find(SeqNum seq) const
    {
        ++producerLookups_;
        // Unsigned: a committed seq (below headSeq_) wraps past size().
        std::uint64_t offset = seq - headSeq_;
        return offset < window_.size() ? &window_[offset] : nullptr;
    }
    TimingInst *
    find(SeqNum seq)
    {
        return const_cast<TimingInst *>(std::as_const(*this).find(seq));
    }

    /**
     * Is the producer with sequence @p seq complete by @p now?
     * Producers outside the window (committed, or 0) count as
     * complete.
     */
    bool
    producerDone(SeqNum seq, Cycle now) const
    {
        const TimingInst *producer = find(seq);
        return !producer || (producer->done && producer->doneCycle <= now);
    }

    /** The window oldest-first (index 0 is the head). */
    const Ring<TimingInst> &window() const { return window_; }

    /** Phase-boundary squash: drop every in-flight instruction
     *  (statistics keep their values); the next push re-anchors. */
    void
    clear()
    {
        window_.clear();
        anchored_ = false;
    }

    /** find() calls so far — a work counter, outside the StatGroup
     *  (never reset, never dumped). */
    std::uint64_t producerLookups() const { return producerLookups_; }

    stats::StatGroup &statGroup() { return statGroup_; }

    stats::Scalar dispatched;
    stats::Scalar committed;
    stats::Scalar fullStalls;  ///< dispatch attempts with a full ROB

  private:
    Ring<TimingInst> window_;
    SeqNum headSeq_ = 0;   ///< sequence number of the head slot
    bool anchored_ = false;
    mutable std::uint64_t producerLookups_ = 0;
    stats::StatGroup statGroup_;
};

} // namespace cpe::cpu

#endif // CPE_CPU_ROB_HH
