/**
 * @file
 * The capture-once, replay-many seam at the functional/timing boundary.
 *
 * A CapturedTrace is the complete committed-path instruction stream of
 * one live Executor run, frozen into one contiguous block of DynInst
 * records.  A ReplayTraceSource is a cheap cursor over it: many timing
 * runs — on the same thread or concurrently across sweep workers —
 * replay one immutable capture without re-executing the functional
 * model.  This is the trace-driven idiom (capture once, replay per
 * timing variant) the paper-era studies used to share workloads; here
 * it removes the N-fold functional cost from N-point sweep grids.
 *
 * Capture writes each record exactly once: the source's fill() runs
 * straight into the uninitialized tail of a malloc'd block, which
 * grows by doubling with realloc.  glibc grows a large block by
 * remapping its pages (mremap), not by copying them, and nothing is
 * lent out before capture returns, so the block is free to move until
 * then.  It is not trimmed afterwards (see capture()).
 *
 * Determinism contract (DESIGN.md "Functional/timing boundary"): the
 * functional stream is a pure function of (workload name, workload
 * options), so a replayed timing run is byte-identical to a
 * live-executed one — tests/test_replay_differential.cc proves it for
 * stats, tables, JSON documents, traces, and profiles.
 */

#ifndef CPE_FUNC_CAPTURED_TRACE_HH
#define CPE_FUNC_CAPTURED_TRACE_HH

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "func/trace.hh"

namespace cpe::func {

/** One immutable, contiguous committed-path instruction stream. */
class CapturedTrace
{
  public:
    /** Records in a capture's first block; it doubles from there. */
    static constexpr std::size_t InitialRecords = std::size_t{1} << 16;

    /** Movable despite the warm-index mutex; a capture must not be
     *  moved while another thread is building an index on it. */
    CapturedTrace(CapturedTrace &&other) noexcept
        : insts_(std::move(other.insts_)),
          size_(other.size_),
          warmIndexes_(std::move(other.warmIndexes_))
    {
        other.size_ = 0;
    }

    /**
     * Drain @p source to the end of its stream (at most @p max_insts
     * records) into a new capture.  Draining a live Executor runs the
     * program to HALT; a runaway program surfaces as the executor's
     * ProgressError fuse, exactly as it would mid-simulation.
     */
    static CapturedTrace capture(TraceSource &source,
                                 std::uint64_t max_insts = ~0ull);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const DynInst *data() const { return insts_.get(); }
    const DynInst &operator[](std::size_t i) const { return insts_[i]; }

    /** Resident footprint, for cache eviction accounting: the records
     *  (the capture never writes the block's unused tail).  Lazily
     *  built warm indexes (16-byte commands, 16–26% of the trace each
     *  on the F13 streams) are not counted: they appear after the
     *  cache has sized the entry. */
    std::size_t memoryBytes() const { return size_ * sizeof(DynInst); }

    /**
     * The warm-command stream (see WarmIndex) for this capture,
     * compacted for the given L1 line geometry.  Built on first
     * request and memoized per geometry; thread-safe, so concurrent
     * sweep workers replaying one shared capture may all call it.
     * The returned index lives as long as the capture.
     */
    const WarmIndex *warmIndex(unsigned iLineBytes,
                               unsigned dLineBytes) const;

    /** Warm indexes built so far: one per geometry asked for. */
    std::size_t warmIndexCount() const;

  private:
    CapturedTrace() = default;

    struct Free
    {
        void operator()(DynInst *block) const { std::free(block); }
    };

    std::unique_ptr<DynInst[], Free> insts_;
    std::size_t size_ = 0;
    mutable std::mutex warmMutex_;
    mutable std::vector<std::unique_ptr<WarmIndex>> warmIndexes_;
};

/**
 * Replays a CapturedTrace as a TraceSource.  The view is read-only —
 * any number of ReplayTraceSources may walk one capture concurrently —
 * and fill() is a bulk copy from the contiguous backing store, so the
 * timing core consumes instructions in blocks instead of one virtual
 * next() per instruction.
 */
class ReplayTraceSource : public TraceSource
{
  public:
    /** Shares ownership: the capture outlives any cache eviction. */
    explicit ReplayTraceSource(
        std::shared_ptr<const CapturedTrace> trace);

    /** Non-owning view for callers that guarantee the lifetime. */
    explicit ReplayTraceSource(const CapturedTrace &trace);

    bool next(DynInst &out) override;
    std::size_t fill(DynInst *out, std::size_t max) override;
    std::size_t view(const DynInst *&out, std::size_t max) override;
    void advance(std::size_t n) override;
    const WarmIndex *warmIndex(unsigned iLineBytes,
                               unsigned dLineBytes,
                               std::size_t &pos) override;

    /** Rewind to the start of the capture. */
    void rewind() { pos_ = 0; }

    /** Records not yet replayed. */
    std::size_t remaining() const { return trace_->size() - pos_; }

  private:
    std::shared_ptr<const CapturedTrace> owned_;
    const CapturedTrace *trace_;
    std::size_t pos_ = 0;
};

} // namespace cpe::func

#endif // CPE_FUNC_CAPTURED_TRACE_HH
