/**
 * @file
 * The functional (golden-model) executor.
 *
 * Runs a Program to architectural completion, one instruction per
 * step(), and doubles as the TraceSource feeding the timing model.
 */

#ifndef CPE_FUNC_EXECUTOR_HH
#define CPE_FUNC_EXECUTOR_HH

#include <cstdint>

#include "func/arch_state.hh"
#include "func/memory.hh"
#include "func/trace.hh"
#include "prog/program.hh"

namespace cpe::func {

/**
 * Functional interpreter for CPE-RISC.
 *
 * Loads the program's data segments on construction, initializes the
 * stack pointer, and then executes instructions with exact ISA
 * semantics.  Every executed instruction emits the DynInst record the
 * timing core consumes; fill() writes a whole block of them straight
 * into the caller's storage (a capture's block), one virtual call per
 * block.
 */
class Executor final : public TraceSource
{
  public:
    /**
     * @param program Program to run.  Stored by value: temporaries are
     *        safe to pass and the executor has no lifetime coupling to
     *        the caller.
     * @param max_insts Safety fuse: throws ProgressError after this
     *        many dynamic instructions without HALT (guards against
     *        runaway loops in workload kernels).
     */
    explicit Executor(prog::Program program,
                      std::uint64_t max_insts = 500'000'000);

    /**
     * Execute one instruction.
     * @return false if already halted; otherwise fills @p out.
     */
    bool next(DynInst &out) override;

    /** Execute up to @p max instructions into @p out; short only at
     *  HALT.  Throws ProgressError at the fuse, as next() does. */
    std::size_t fill(DynInst *out, std::size_t max) override;

    /** Run to HALT (or the fuse); @return dynamic instruction count. */
    std::uint64_t run();

    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    const Memory &memory() const { return memory_; }
    Memory &memory() { return memory_; }
    const prog::Program &program() const { return program_; }

    /** Dynamic instructions executed so far. */
    std::uint64_t instCount() const { return instCount_; }

  private:
    /** next() without the virtual dispatch, for fill()'s loop. */
    bool step(DynInst &out);

    /** Throw the ProgressError of a tripped instruction fuse. */
    [[noreturn]] void tripFuse() const;

    /** Execute @p inst at the current PC; fills the DynInst record. */
    void executeOne(const isa::Inst &inst, DynInst &rec);

    prog::Program program_;
    ArchState state_;
    Memory memory_;
    std::uint64_t instCount_ = 0;
    std::uint64_t maxInsts_;
};

} // namespace cpe::func

#endif // CPE_FUNC_EXECUTOR_HH
