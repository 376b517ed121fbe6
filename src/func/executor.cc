#include "func/executor.hh"

#include <limits>

#include "isa/disasm.hh"
#include "prog/builder.hh"
#include "util/bits.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace cpe::func {

using isa::Inst;
using isa::Opcode;

Executor::Executor(prog::Program program, std::uint64_t max_insts)
    : program_(std::move(program)), maxInsts_(max_insts)
{
    for (const auto &segment : program_.data())
        memory_.writeBlock(segment.base, segment.bytes);
    state_.setPc(program_.entry());
    state_.writeReg(prog::reg::sp, prog::layout::StackTop);
}

void
Executor::tripFuse() const
{
    Json snapshot = Json::object();
    snapshot["kind"] = "instruction_fuse";
    snapshot["program"] = program_.name();
    snapshot["insts"] = instCount_;
    snapshot["pc"] = state_.pc();
    throw ProgressError(Msg() << "program " << program_.name()
                              << " exceeded instruction fuse of "
                              << maxInsts_ << " (pc=0x" << std::hex
                              << state_.pc() << ")",
                        std::move(snapshot));
}

inline bool
Executor::step(DynInst &out)
{
    if (state_.halted())
        return false;
    if (instCount_ >= maxInsts_)
        tripFuse();
    Addr pc = state_.pc();
    const Inst &inst = program_.fetch(pc);

    out = DynInst{};
    out.seq = ++instCount_;
    out.pc = pc;
    out.inst = inst;
    out.cls = isa::classOf(inst.op);
    out.kernelMode = state_.kernelMode();

    executeOne(inst, out);
    out.nextPc = state_.pc();
    out.taken = out.isControl() &&
                out.nextPc != pc + isa::InstBytes;
    return true;
}

bool
Executor::next(DynInst &out)
{
    return step(out);
}

std::size_t
Executor::fill(DynInst *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max && step(out[n]))
        ++n;
    return n;
}

std::uint64_t
Executor::run()
{
    DynInst rec;
    while (next(rec)) {
    }
    return instCount_;
}

void
Executor::executeOne(const Inst &inst, DynInst &rec)
{
    ArchState &st = state_;
    Addr pc = st.pc();
    Addr next_pc = pc + isa::InstBytes;

    auto r = [&](RegIndex reg) { return st.readReg(reg); };
    auto rs = [&](RegIndex reg) {
        return static_cast<std::int64_t>(st.readReg(reg));
    };
    auto f = [&](RegIndex reg) { return st.readFpReg(reg); };
    auto w = [&](std::uint64_t value) { st.writeReg(inst.rd, value); };
    auto wf = [&](double value) { st.writeFpReg(inst.rd, value); };

    auto mem_addr = [&]() -> Addr {
        Addr addr = r(inst.rs1) + static_cast<std::uint64_t>(inst.imm);
        unsigned size = isa::memBytes(inst.op);
        CPE_ASSERT(addr % size == 0,
                   "unaligned " << isa::opcodeName(inst.op) << " @ 0x"
                                << std::hex << addr << " pc=0x" << pc);
        rec.memAddr = addr;
        rec.memSize = static_cast<std::uint8_t>(size);
        return addr;
    };

    switch (inst.op) {
      // ----- integer ALU, register-register ---------------------------
      case Opcode::ADD: w(r(inst.rs1) + r(inst.rs2)); break;
      case Opcode::SUB: w(r(inst.rs1) - r(inst.rs2)); break;
      case Opcode::AND: w(r(inst.rs1) & r(inst.rs2)); break;
      case Opcode::OR:  w(r(inst.rs1) | r(inst.rs2)); break;
      case Opcode::XOR: w(r(inst.rs1) ^ r(inst.rs2)); break;
      case Opcode::SLL: w(r(inst.rs1) << (r(inst.rs2) & 63)); break;
      case Opcode::SRL: w(r(inst.rs1) >> (r(inst.rs2) & 63)); break;
      case Opcode::SRA:
        w(static_cast<std::uint64_t>(rs(inst.rs1) >> (r(inst.rs2) & 63)));
        break;
      case Opcode::SLT: w(rs(inst.rs1) < rs(inst.rs2) ? 1 : 0); break;
      case Opcode::SLTU: w(r(inst.rs1) < r(inst.rs2) ? 1 : 0); break;
      case Opcode::MUL: w(r(inst.rs1) * r(inst.rs2)); break;
      case Opcode::DIV: {
        std::int64_t num = rs(inst.rs1), den = rs(inst.rs2);
        if (den == 0)
            w(~std::uint64_t{0});
        else if (num == std::numeric_limits<std::int64_t>::min() &&
                 den == -1)
            w(static_cast<std::uint64_t>(num));
        else
            w(static_cast<std::uint64_t>(num / den));
        break;
      }
      case Opcode::REM: {
        std::int64_t num = rs(inst.rs1), den = rs(inst.rs2);
        if (den == 0)
            w(static_cast<std::uint64_t>(num));
        else if (num == std::numeric_limits<std::int64_t>::min() &&
                 den == -1)
            w(0);
        else
            w(static_cast<std::uint64_t>(num % den));
        break;
      }

      // ----- integer ALU, immediate ------------------------------------
      case Opcode::ADDI:
        w(r(inst.rs1) + static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::ANDI:
        w(r(inst.rs1) & static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::ORI:
        w(r(inst.rs1) | static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::XORI:
        w(r(inst.rs1) ^ static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::SLTI:
        w(rs(inst.rs1) < inst.imm ? 1 : 0);
        break;
      case Opcode::SLLI: w(r(inst.rs1) << (inst.imm & 63)); break;
      case Opcode::SRLI: w(r(inst.rs1) >> (inst.imm & 63)); break;
      case Opcode::SRAI:
        w(static_cast<std::uint64_t>(rs(inst.rs1) >> (inst.imm & 63)));
        break;
      case Opcode::LUI:
        w(static_cast<std::uint64_t>(inst.imm) << 12);
        break;

      // ----- floating point ------------------------------------------
      case Opcode::FADD: wf(f(inst.rs1) + f(inst.rs2)); break;
      case Opcode::FSUB: wf(f(inst.rs1) - f(inst.rs2)); break;
      case Opcode::FMUL: wf(f(inst.rs1) * f(inst.rs2)); break;
      case Opcode::FDIV: wf(f(inst.rs1) / f(inst.rs2)); break;
      case Opcode::FNEG: wf(-f(inst.rs1)); break;
      case Opcode::FCVT_I2F:
        wf(static_cast<double>(rs(inst.rs1)));
        break;
      case Opcode::FCVT_F2I:
        w(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            f(inst.rs1))));
        break;
      case Opcode::FCMPLT:
        w(f(inst.rs1) < f(inst.rs2) ? 1 : 0);
        break;

      // ----- loads ----------------------------------------------------
      case Opcode::LB: case Opcode::LBU:
      case Opcode::LH: case Opcode::LHU:
      case Opcode::LW: case Opcode::LWU:
      case Opcode::LD: case Opcode::FLD: {
        Addr addr = mem_addr();
        unsigned size = rec.memSize;
        std::uint64_t raw = memory_.read(addr, size);
        if (isa::loadSigned(inst.op))
            raw = static_cast<std::uint64_t>(sext(raw, size * 8));
        w(raw);
        break;
      }

      // ----- stores ---------------------------------------------------
      case Opcode::SB: case Opcode::SH:
      case Opcode::SW: case Opcode::SD: case Opcode::FSD: {
        Addr addr = mem_addr();
        memory_.write(addr, r(inst.rs2), rec.memSize);
        break;
      }

      // ----- control flow ------------------------------------------------
      case Opcode::BEQ:
        if (r(inst.rs1) == r(inst.rs2))
            next_pc = pc + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::BNE:
        if (r(inst.rs1) != r(inst.rs2))
            next_pc = pc + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::BLT:
        if (rs(inst.rs1) < rs(inst.rs2))
            next_pc = pc + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::BGE:
        if (rs(inst.rs1) >= rs(inst.rs2))
            next_pc = pc + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::BLTU:
        if (r(inst.rs1) < r(inst.rs2))
            next_pc = pc + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::BGEU:
        if (r(inst.rs1) >= r(inst.rs2))
            next_pc = pc + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::JAL:
        w(pc + isa::InstBytes);
        next_pc = pc + static_cast<std::uint64_t>(inst.imm);
        break;
      case Opcode::JALR: {
        Addr target =
            (r(inst.rs1) + static_cast<std::uint64_t>(inst.imm)) & ~Addr{1};
        w(pc + isa::InstBytes);
        next_pc = target;
        break;
      }

      // ----- system ------------------------------------------------------
      case Opcode::EMODE: st.setKernelMode(true); break;
      case Opcode::XMODE: st.setKernelMode(false); break;
      case Opcode::NOP: break;
      case Opcode::HALT:
        st.setHalted();
        break;

      default:
        panic(Msg() << "executor: bad opcode in "
                    << isa::disassemble(inst, pc));
    }

    st.setPc(next_pc);
}

} // namespace cpe::func
