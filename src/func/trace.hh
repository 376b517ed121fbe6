/**
 * @file
 * The dynamic-instruction record and trace-source interface that couple
 * the functional (golden) core to the timing model.
 *
 * The timing core replays the committed-path instruction stream: every
 * DynInst carries its true memory address and branch outcome, so the
 * timing model can charge correct cache and misprediction penalties
 * without re-executing semantics.  This is the trace-driven methodology
 * the paper's SimOS-based evaluation used.
 */

#ifndef CPE_FUNC_TRACE_HH
#define CPE_FUNC_TRACE_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace cpe::func {

/**
 * One committed dynamic instruction.  Fields are ordered widest first
 * so the record packs into 56 bytes: captures hold one per committed
 * instruction, so every byte here is a byte per instruction of every
 * resident trace.
 */
struct DynInst
{
    SeqNum seq = 0;          ///< commit-order sequence number
    Addr pc = 0;
    Addr memAddr = 0;        ///< effective address (mem ops only)
    Addr nextPc = 0;         ///< true successor PC
    isa::Inst inst;          ///< static instruction
    isa::InstClass cls = isa::InstClass::IntAlu;
    std::uint8_t memSize = 0;///< access bytes (mem ops only)
    bool taken = false;      ///< control op actually redirected
    bool kernelMode = false; ///< executed in kernel mode

    bool isLoad() const { return cls == isa::InstClass::Load; }
    bool isStore() const { return cls == isa::InstClass::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool
    isControl() const
    {
        return cls == isa::InstClass::Branch || cls == isa::InstClass::Jump;
    }
};
static_assert(sizeof(DynInst) == 56, "DynInst layout drifted");

/** What a WarmCmd asks the warm-only fast-forward path to do. */
enum class WarmKind : std::uint8_t {
    ILine,  ///< probe/fill one I-cache line (a = line address)
    Ctrl,   ///< update the branch predictor from the indexed record
    DLine,  ///< probe/fill one D-cache line (a = line address)
};

/**
 * One precomputed warm action.  A warm-command stream is the
 * run-compacted form of a trace's cache/predictor footprint: one ILine
 * (DLine) command per maximal run of consecutive records touching the
 * same I- (D-) line — plus one extra DLine command where a store first
 * dirties a run that a load opened — and one Ctrl command per control
 * record.  Replaying the commands leaves caches and predictor in
 * exactly the state a record-by-record warm walk would (skipped
 * records cannot change cache state: each would re-probe the line the
 * immediately preceding record just made most-recent).
 *
 * A Ctrl command carries no payload: the replay reads pc, instruction,
 * outcome and successor from the record at @c index, which the trace
 * lends alongside the commands.  That keeps a command at 16 bytes.
 */
struct WarmCmd
{
    std::uint32_t index = 0;  ///< trace index the action belongs to
    WarmKind kind = WarmKind::ILine;
    bool flag = false;        ///< DLine: is-store
    Addr a = 0;               ///< ILine/DLine: line address

    bool operator==(const WarmCmd &) const = default;
};
static_assert(sizeof(WarmCmd) == 16, "WarmCmd layout drifted");

/**
 * A warm-command stream plus the line geometry it was compacted for.
 * Run boundaries depend on line size, so an index is only valid for a
 * machine whose L1 caches match these — callers must check.
 */
struct WarmIndex
{
    unsigned iLineBytes = 0;
    unsigned dLineBytes = 0;
    std::vector<WarmCmd> cmds;  ///< ascending by index
};

/**
 * Pull-based producer of the committed instruction stream.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next committed instruction.
     * @return false when the program has halted (out untouched).
     */
    virtual bool next(DynInst &out) = 0;

    /**
     * Produce up to @p max committed instructions into @p out.
     *
     * Contract: a short return (fewer than @p max records) means the
     * stream has ended — a consumer may stop polling after one.  The
     * base implementation loops next(); the live Executor overrides it
     * to execute straight into @p out, and sources with contiguous
     * backing storage (ReplayTraceSource, VectorTraceSource) with a
     * bulk copy, which is what makes block-wise consumption cheaper
     * than one virtual call per instruction.
     *
     * @return the number of records produced (0 at end of stream).
     */
    virtual std::size_t fill(DynInst *out, std::size_t max);

    /**
     * Zero-copy bulk access: point @p out at up to @p max records at
     * the cursor WITHOUT advancing it; the caller consumes them with
     * advance().  Unlike fill(), a short (even zero) return does NOT
     * mean end of stream — only that the source has no contiguous
     * records to lend right now (live executors never do); callers
     * fall back to fill().  Overridden by contiguous-backing sources,
     * where it saves the fill() copy on hot bulk walks (the sampled
     * mode's fast-forward).
     */
    virtual std::size_t view(const DynInst *&out, std::size_t max)
    {
        (void)out;
        (void)max;
        return 0;
    }

    /** Consume @p n records previously exposed by view().  @p n must
     *  not exceed the last view()'s return. */
    virtual void advance(std::size_t n) { (void)n; }

    /**
     * Warm-command stream for the records view() would lend, compacted
     * for the given line geometry, or nullptr when the source cannot
     * provide one (live executors; pre-recorded sources that choose
     * not to).  On success @p pos receives the global trace index of
     * the record the cursor stands on, i.e. of view()'s first record —
     * commands with WarmCmd::index >= pos are the ones still ahead.
     */
    virtual const WarmIndex *warmIndex(unsigned iLineBytes,
                                       unsigned dLineBytes,
                                       std::size_t &pos)
    {
        (void)iLineBytes;
        (void)dLineBytes;
        pos = 0;
        return nullptr;
    }
};

/**
 * Replays a pre-recorded trace.  Used by unit tests to feed the timing
 * core hand-crafted instruction streams.
 */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<DynInst> trace);

    bool next(DynInst &out) override;
    std::size_t fill(DynInst *out, std::size_t max) override;
    std::size_t view(const DynInst *&out, std::size_t max) override;
    void advance(std::size_t n) override;

    /** Rewind to the start of the trace. */
    void rewind() { pos_ = 0; }

  private:
    std::vector<DynInst> trace_;
    std::size_t pos_ = 0;
};

/** Drain up to @p max_insts records from @p source into a vector. */
std::vector<DynInst> recordTrace(TraceSource &source,
                                 std::size_t max_insts);

} // namespace cpe::func

#endif // CPE_FUNC_TRACE_HH
