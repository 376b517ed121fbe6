#include "func/captured_trace.hh"

#include <algorithm>
#include <new>

#include "util/logging.hh"

namespace cpe::func {

CapturedTrace
CapturedTrace::capture(TraceSource &source, std::uint64_t max_insts)
{
    CapturedTrace trace;
    std::size_t capacity = 0;
    while (trace.size_ < max_insts) {
        if (trace.size_ == capacity) {
            // Uninitialized: fill() writes every record it returns, and
            // pages a short stream never reaches are never touched.
            capacity = capacity ? 2 * capacity : InitialRecords;
            void *block = std::realloc(trace.insts_.get(),
                                       capacity * sizeof(DynInst));
            if (!block)
                throw std::bad_alloc();
            trace.insts_.release();
            trace.insts_.reset(static_cast<DynInst *>(block));
        }
        std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
            capacity - trace.size_, max_insts - trace.size_));
        std::size_t got =
            source.fill(trace.insts_.get() + trace.size_, want);
        trace.size_ += got;
        if (got < want)
            break;  // short fill = end of stream
    }
    // The block is not trimmed: the capture never writes its unused
    // tail, so the tail adds no resident memory.  A trim would cost
    // more than it saves: freeing a trimmed block raises glibc's mmap
    // threshold to exactly its size, so the next capture of the same
    // stream outgrows the heap and faults in fresh pages instead of
    // reusing the freed ones.
    return trace;
}

const WarmIndex *
CapturedTrace::warmIndex(unsigned iLineBytes, unsigned dLineBytes) const
{
    std::lock_guard<std::mutex> lock(warmMutex_);
    for (const auto &index : warmIndexes_)
        if (index->iLineBytes == iLineBytes &&
            index->dLineBytes == dLineBytes)
            return index.get();

    CPE_ASSERT(size_ <= ~std::uint32_t{0},
               "trace too large for a 32-bit warm index");
    auto index = std::make_unique<WarmIndex>();
    index->iLineBytes = iLineBytes;
    index->dLineBytes = dLineBytes;
    const Addr iMask = ~static_cast<Addr>(iLineBytes - 1);
    const Addr dMask = ~static_cast<Addr>(dLineBytes - 1);

    // One pass, with the same consecutive-run memo the
    // record-by-record warm walk uses (PhaseEngine::warmSpan): only a
    // run's first probe, plus the first store into a run a load
    // opened, can change cache state, so only those become commands.
    // A record yields at most two commands (ILine, plus Ctrl or DLine:
    // no record is both).  Reserving that bound spares the growth
    // copies; the untouched tail of the reservation is never faulted
    // in.
    std::vector<WarmCmd> &cmds = index->cmds;
    cmds.reserve(2 * size_);
    Addr lastILine = ~Addr{0};
    Addr lastDLine = ~Addr{0};
    bool lastDLineDirty = false;
    for (std::size_t i = 0; i < size_; ++i) {
        const DynInst &rec = insts_[i];
        auto at = static_cast<std::uint32_t>(i);
        Addr iline = rec.pc & iMask;
        if (iline != lastILine) {
            lastILine = iline;
            cmds.push_back({at, WarmKind::ILine, false, iline});
        }
        if (rec.isControl())
            cmds.push_back({at, WarmKind::Ctrl, false, Addr{0}});
        if (rec.isMem()) {
            Addr dline = rec.memAddr & dMask;
            bool store = rec.isStore();
            if (dline != lastDLine || (store && !lastDLineDirty)) {
                lastDLine = dline;
                lastDLineDirty = store;
                cmds.push_back({at, WarmKind::DLine, store, dline});
            }
        }
    }
    warmIndexes_.push_back(std::move(index));
    return warmIndexes_.back().get();
}

std::size_t
CapturedTrace::warmIndexCount() const
{
    std::lock_guard<std::mutex> lock(warmMutex_);
    return warmIndexes_.size();
}

ReplayTraceSource::ReplayTraceSource(
    std::shared_ptr<const CapturedTrace> trace)
    : owned_(std::move(trace)), trace_(owned_.get())
{
    CPE_ASSERT(trace_, "replay source needs a capture");
}

ReplayTraceSource::ReplayTraceSource(const CapturedTrace &trace)
    : trace_(&trace)
{
}

bool
ReplayTraceSource::next(DynInst &out)
{
    if (pos_ >= trace_->size())
        return false;
    out = (*trace_)[pos_++];
    return true;
}

std::size_t
ReplayTraceSource::fill(DynInst *out, std::size_t max)
{
    std::size_t n = std::min(max, trace_->size() - pos_);
    std::copy_n(trace_->data() + pos_, n, out);
    pos_ += n;
    return n;
}

std::size_t
ReplayTraceSource::view(const DynInst *&out, std::size_t max)
{
    std::size_t n = std::min(max, trace_->size() - pos_);
    out = trace_->data() + pos_;
    return n;
}

void
ReplayTraceSource::advance(std::size_t n)
{
    pos_ += n;
}

const WarmIndex *
ReplayTraceSource::warmIndex(unsigned iLineBytes, unsigned dLineBytes,
                             std::size_t &pos)
{
    pos = pos_;
    return trace_->warmIndex(iLineBytes, dLineBytes);
}

} // namespace cpe::func
