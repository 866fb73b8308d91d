#include "reference.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/log.hpp"

// NOTE: this interpreter intentionally re-implements the instruction
// semantics instead of reusing sim/functional.cpp — an independent
// implementation is what makes differential testing meaningful.

namespace gs
{

namespace
{

float
f32(Word w)
{
    return std::bit_cast<float>(w);
}

Word
w32(float f)
{
    return std::bit_cast<Word>(f);
}

std::int32_t
i32(Word w)
{
    return std::int32_t(w);
}

bool
compareInt(CmpOp c, std::int32_t a, std::int32_t b)
{
    switch (c) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

bool
compareFloat(CmpOp c, float a, float b)
{
    switch (c) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

/** One thread's architectural state. */
struct Thread
{
    std::vector<Word> regs;
    std::vector<bool> preds;
    int pc = 0;
    bool done = false;
    bool atBarrier = false;
    unsigned tid = 0; ///< thread index within the CTA
};

struct CtaContext
{
    unsigned ctaId = 0;
    unsigned nTid = 0;
    unsigned nCtaId = 0;
    unsigned warpSizeForIds = 32;
};

Word
readSreg(SReg s, const Thread &t, const CtaContext &c)
{
    switch (s) {
      case SReg::Tid: return t.tid;
      case SReg::CtaId: return c.ctaId;
      case SReg::NTid: return c.nTid;
      case SReg::NCtaId: return c.nCtaId;
      case SReg::LaneId: return t.tid % c.warpSizeForIds;
      case SReg::WarpId: return t.tid / c.warpSizeForIds;
    }
    return 0;
}

/**
 * Execute one instruction for one thread. Returns true when the thread
 * should pause (barrier) or finished.
 */
bool
step(Thread &t, const Kernel &k, const CtaContext &c, GlobalMemory &mem,
     std::vector<Word> &shared)
{
    const Instruction &inst = k.code[std::size_t(t.pc)];

    auto predTrue = [&](PredIdx p, bool neg) {
        const bool v = t.preds[std::size_t(p)];
        return neg ? !v : v;
    };
    auto guarded_off = [&] {
        return inst.guard != kNoPred &&
               !predTrue(inst.guard, inst.guardNeg);
    };
    auto src = [&](unsigned i) -> Word {
        if (i == 1 && inst.hasImm)
            return inst.imm;
        return t.regs[std::size_t(inst.src[i])];
    };

    switch (inst.op) {
      case Opcode::EXIT:
        t.done = true;
        return true;
      case Opcode::BAR:
        t.atBarrier = true;
        ++t.pc;
        return true;
      case Opcode::JMP:
        t.pc = inst.target;
        return false;
      case Opcode::BRA: {
        const bool taken =
            inst.guard == kNoPred || predTrue(inst.guard, inst.guardNeg);
        t.pc = taken ? inst.target : t.pc + 1;
        return false;
      }
      default:
        break;
    }

    if (guarded_off()) {
        ++t.pc;
        return false;
    }

    // Exhaustive over the opcode table — no default case, so adding an
    // opcode without teaching the oracle about it is a compile error
    // (-Wswitch), never a runtime abort inside a fuzz campaign.
    Word r = 0;
    bool writes = inst.writesDst();
    switch (inst.op) {
      case Opcode::S2R: r = readSreg(inst.sreg, t, c); break;
      case Opcode::MOV: r = inst.hasImm ? inst.imm : src(0); break;
      // Two's-complement wraparound: computed in Word, never int32.
      case Opcode::IADD: r = src(0) + src(1); break;
      case Opcode::ISUB: r = src(0) - src(1); break;
      case Opcode::IMUL: r = src(0) * src(1); break;
      case Opcode::IMAD:
        r = src(0) * src(1) + t.regs[std::size_t(inst.src[2])];
        break;
      case Opcode::IDIV: {
        const std::int32_t a = i32(src(0)), b = i32(src(1));
        r = (b == 0) ? 0
            : (a == INT32_MIN && b == -1) ? Word(a)
                                          : Word(a / b);
        break;
      }
      case Opcode::IREM: {
        const std::int32_t a = i32(src(0)), b = i32(src(1));
        r = (b == 0 || (a == INT32_MIN && b == -1)) ? 0 : Word(a % b);
        break;
      }
      case Opcode::IMIN: r = Word(std::min(i32(src(0)), i32(src(1)))); break;
      case Opcode::IMAX: r = Word(std::max(i32(src(0)), i32(src(1)))); break;
      case Opcode::IABS: r = i32(src(0)) < 0 ? 0u - src(0) : src(0); break;
      case Opcode::AND: r = src(0) & src(1); break;
      case Opcode::OR: r = src(0) | src(1); break;
      case Opcode::XOR: r = src(0) ^ src(1); break;
      case Opcode::NOT: r = ~src(0); break;
      case Opcode::SHL: r = src(0) << (src(1) & 31); break;
      case Opcode::SHR: r = src(0) >> (src(1) & 31); break;
      case Opcode::FADD: r = w32(f32(src(0)) + f32(src(1))); break;
      case Opcode::FSUB: r = w32(f32(src(0)) - f32(src(1))); break;
      case Opcode::FMUL: r = w32(f32(src(0)) * f32(src(1))); break;
      case Opcode::FFMA:
        r = w32(f32(src(0)) * f32(src(1)) +
                f32(t.regs[std::size_t(inst.src[2])]));
        break;
      case Opcode::FMIN: r = w32(std::fmin(f32(src(0)), f32(src(1)))); break;
      case Opcode::FMAX: r = w32(std::fmax(f32(src(0)), f32(src(1)))); break;
      case Opcode::FABS: r = w32(std::fabs(f32(src(0)))); break;
      case Opcode::FNEG: r = w32(-f32(src(0))); break;
      case Opcode::I2F: r = w32(float(i32(src(0)))); break;
      case Opcode::F2I: {
        const float f = f32(src(0));
        r = !(f == f)                  ? 0
            : (f >= 2147483648.0f)     ? Word(INT32_MAX)
            : (f <= -2147483904.0f)    ? Word(INT32_MIN)
                                       : Word(std::int32_t(f));
        break;
      }
      case Opcode::SIN: r = w32(std::sin(f32(src(0)))); break;
      case Opcode::COS: r = w32(std::cos(f32(src(0)))); break;
      case Opcode::EX2: r = w32(std::exp2(f32(src(0)))); break;
      case Opcode::LG2:
        r = w32(f32(src(0)) > 0 ? std::log2(f32(src(0))) : 0.0f);
        break;
      case Opcode::RCP:
        r = w32(f32(src(0)) == 0 ? 0.0f : 1.0f / f32(src(0)));
        break;
      case Opcode::RSQ:
        r = w32(f32(src(0)) > 0 ? 1.0f / std::sqrt(f32(src(0))) : 0.0f);
        break;
      case Opcode::SQRT:
        r = w32(f32(src(0)) >= 0 ? std::sqrt(f32(src(0))) : 0.0f);
        break;
      case Opcode::SEL:
        r = t.preds[std::size_t(inst.psrc)] ? src(0) : src(1);
        break;
      case Opcode::ISETP:
        t.preds[std::size_t(inst.pdst)] =
            compareInt(inst.cmp, i32(src(0)), i32(src(1)));
        writes = false;
        break;
      case Opcode::FSETP:
        t.preds[std::size_t(inst.pdst)] =
            compareFloat(inst.cmp, f32(src(0)), f32(src(1)));
        writes = false;
        break;
      case Opcode::LDG:
        r = mem.readWord((Addr(src(0)) + inst.imm) & ~Addr{3});
        break;
      case Opcode::STG:
        mem.writeWord((Addr(src(0)) + inst.imm) & ~Addr{3},
                      t.regs[std::size_t(inst.src[1])]);
        break;
      case Opcode::LDS: {
        const Addr a = Addr(src(0)) + inst.imm;
        r = shared.empty()
                ? 0
                : shared[std::size_t(a / kBytesPerWord) % shared.size()];
        break;
      }
      case Opcode::STS: {
        const Addr a = Addr(src(0)) + inst.imm;
        if (!shared.empty())
            shared[std::size_t(a / kBytesPerWord) % shared.size()] =
                t.regs[std::size_t(inst.src[1])];
        break;
      }
      case Opcode::SMOV:
        // Decompress-in-place: per thread this is the identity on the
        // destination register (the mask games only exist on the SIMT
        // side).
        r = t.regs[std::size_t(inst.src[0])];
        break;
      case Opcode::EXIT:
      case Opcode::BAR:
      case Opcode::JMP:
      case Opcode::BRA:
      case Opcode::NumOpcodes:
        // Control flow dispatched above; NumOpcodes is the table size,
        // not an instruction — Kernel::check() rejects kernels that
        // carry it before they reach any interpreter.
        break;
    }

    if (writes)
        t.regs[std::size_t(inst.dst)] = r;
    ++t.pc;
    return false;
}

} // namespace

bool
referenceExecuteBounded(const Kernel &kernel, LaunchDims dims,
                        GlobalMemory &mem, std::uint64_t maxSteps)
{
    GS_ASSERT(kernel.check().empty(), "reference: malformed kernel");
    std::uint64_t steps = 0;
    for (unsigned cta = 0; cta < dims.ctas; ++cta) {
        CtaContext ctx;
        ctx.ctaId = cta;
        ctx.nTid = dims.threadsPerCta;
        ctx.nCtaId = dims.ctas;

        std::vector<Word> shared(
            std::max(kernel.sharedBytes / kBytesPerWord, 1u), 0);

        std::vector<Thread> threads(dims.threadsPerCta);
        for (unsigned i = 0; i < dims.threadsPerCta; ++i) {
            threads[i].tid = i;
            threads[i].regs.assign(kernel.numRegs, 0);
            threads[i].preds.assign(std::max(kernel.numPreds, 1u),
                                    false);
        }

        // Barrier-phase execution: every live thread runs to its next
        // BAR (or EXIT); then all barriers release together.
        bool all_done = false;
        while (!all_done) {
            all_done = true;
            for (Thread &t : threads) {
                if (t.done)
                    continue;
                all_done = false;
                while (!t.done && !t.atBarrier) {
                    if (maxSteps != 0 && ++steps > maxSteps)
                        return false;
                    step(t, kernel, ctx, mem, shared);
                }
            }
            for (Thread &t : threads)
                t.atBarrier = false;
        }
    }
    return true;
}

void
referenceExecute(const Kernel &kernel, LaunchDims dims, GlobalMemory &mem)
{
    kernel.validate();
    referenceExecuteBounded(kernel, dims, mem, 0);
}

} // namespace gs
