#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "isa/kernel_builder.hpp"
#include "sim/functional.hpp"
#include "sim/reference.hpp"

namespace gs
{
namespace
{

class FunctionalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        warp.init(/*regs=*/8, /*preds=*/2, /*warp=*/8, /*lanes=*/8);
        ctx.ctaId = 3;
        ctx.nTid = 64;
        ctx.nCtaId = 10;
        ctx.warpId = 1;
        ctx.threadBase = 8;
        shared.assign(16, 0);
    }

    void
    setReg(RegIdx r, std::initializer_list<Word> vals)
    {
        auto span = warp.regValues(r);
        unsigned i = 0;
        for (const Word v : vals)
            span[i++] = v;
    }

    Word
    runOne(const Instruction &inst, unsigned lane = 0,
           LaneMask mask = 0xff)
    {
        const auto r =
            executeFunctional(inst, warp, mask, ctx, gmem,
                              std::span<Word>(shared));
        return r.dst[lane];
    }

    WarpState warp;
    SregContext ctx;
    GlobalMemory gmem;
    std::vector<Word> shared;
};

Instruction
op2(Opcode o, RegIdx d, RegIdx a, RegIdx b)
{
    Instruction i;
    i.op = o;
    i.dst = d;
    i.src[0] = a;
    i.src[1] = b;
    return i;
}

TEST_F(FunctionalTest, IntegerArithmetic)
{
    setReg(0, {10, 20, 0x80000000});
    setReg(1, {3, 7, 1});
    EXPECT_EQ(runOne(op2(Opcode::IADD, 2, 0, 1)), 13u);
    EXPECT_EQ(runOne(op2(Opcode::ISUB, 2, 0, 1)), 7u);
    EXPECT_EQ(runOne(op2(Opcode::IMUL, 2, 0, 1)), 30u);
    EXPECT_EQ(runOne(op2(Opcode::IMIN, 2, 0, 1)), 3u);
    EXPECT_EQ(runOne(op2(Opcode::IMAX, 2, 0, 1)), 10u);
    EXPECT_EQ(runOne(op2(Opcode::IDIV, 2, 0, 1)), 3u);
    EXPECT_EQ(runOne(op2(Opcode::IREM, 2, 0, 1)), 1u);
}

TEST_F(FunctionalTest, DivideEdgeCases)
{
    setReg(0, {100, Word(INT32_MIN)});
    setReg(1, {0, Word(-1)});
    const auto r = executeFunctional(op2(Opcode::IDIV, 2, 0, 1), warp,
                                     0b11, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 0u);                 // divide by zero -> 0
    EXPECT_EQ(r.dst[1], Word(INT32_MIN));    // INT_MIN / -1 saturates
}

TEST_F(FunctionalTest, Logic)
{
    setReg(0, {0b1100});
    setReg(1, {0b1010});
    EXPECT_EQ(runOne(op2(Opcode::AND, 2, 0, 1)), 0b1000u);
    EXPECT_EQ(runOne(op2(Opcode::OR, 2, 0, 1)), 0b1110u);
    EXPECT_EQ(runOne(op2(Opcode::XOR, 2, 0, 1)), 0b0110u);
    EXPECT_EQ(runOne(op2(Opcode::SHL, 2, 0, 1)) , 0b1100u << 10);
}

TEST_F(FunctionalTest, FloatArithmetic)
{
    setReg(0, {std::bit_cast<Word>(1.5f)});
    setReg(1, {std::bit_cast<Word>(2.0f)});
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(op2(Opcode::FADD, 2, 0, 1))),
                    3.5f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(op2(Opcode::FMUL, 2, 0, 1))),
                    3.0f);

    Instruction ffma = op2(Opcode::FFMA, 3, 0, 1);
    ffma.src[2] = 1;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(ffma)), 5.0f);
}

TEST_F(FunctionalTest, SpecialFunctions)
{
    setReg(0, {std::bit_cast<Word>(4.0f)});
    Instruction i;
    i.op = Opcode::SQRT;
    i.dst = 1;
    i.src[0] = 0;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 2.0f);
    i.op = Opcode::RCP;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 0.25f);
    i.op = Opcode::EX2;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 16.0f);
    i.op = Opcode::LG2;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 2.0f);
    i.op = Opcode::RSQ;
    EXPECT_FLOAT_EQ(std::bit_cast<float>(runOne(i)), 0.5f);
}

TEST_F(FunctionalTest, SaturatingF2I)
{
    setReg(0, {std::bit_cast<Word>(3.9f), std::bit_cast<Word>(-2.5f),
               std::bit_cast<Word>(1e20f),
               std::bit_cast<Word>(std::nanf(""))});
    Instruction i;
    i.op = Opcode::F2I;
    i.dst = 1;
    i.src[0] = 0;
    const auto r = executeFunctional(i, warp, 0xf, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 3u);
    EXPECT_EQ(std::int32_t(r.dst[1]), -2);
    EXPECT_EQ(r.dst[2], Word(INT32_MAX));
    EXPECT_EQ(r.dst[3], 0u);
}

TEST_F(FunctionalTest, PredicateCompareAndSel)
{
    setReg(0, {1, 5, 3, 3});
    setReg(1, {3, 3, 3, 3});
    Instruction cmp = op2(Opcode::ISETP, kNoReg, 0, 1);
    cmp.dst = kNoReg;
    cmp.pdst = 0;
    cmp.cmp = CmpOp::LT;
    const auto r = executeFunctional(cmp, warp, 0xf, ctx, gmem, {});
    EXPECT_EQ(r.predTrue, 0b0001u);
    EXPECT_EQ(warp.pred(0), 0b0001u);

    Instruction sel = op2(Opcode::SEL, 2, 0, 1);
    sel.psrc = 0;
    const auto s = executeFunctional(sel, warp, 0xf, ctx, gmem, {});
    EXPECT_EQ(s.dst[0], 1u); // pred true -> src0
    EXPECT_EQ(s.dst[1], 3u); // pred false -> src1
}

TEST_F(FunctionalTest, PredicateWriteRespectsMask)
{
    setReg(0, {9, 9, 9, 9});
    warp.setPred(0, 0b1111, 0b1111);
    Instruction cmp;
    cmp.op = Opcode::ISETP;
    cmp.pdst = 0;
    cmp.cmp = CmpOp::EQ;
    cmp.src[0] = 0;
    cmp.imm = 0;
    cmp.hasImm = true;
    executeFunctional(cmp, warp, 0b0011, ctx, gmem, {});
    // Lanes 0-1 recomputed (9 != 0 -> false); lanes 2-3 keep true.
    EXPECT_EQ(warp.pred(0), 0b1100u);
}

TEST_F(FunctionalTest, SpecialRegisters)
{
    Instruction i;
    i.op = Opcode::S2R;
    i.dst = 0;
    i.sreg = SReg::Tid;
    auto r = executeFunctional(i, warp, 0xff, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 8u);  // threadBase + lane
    EXPECT_EQ(r.dst[5], 13u);
    i.sreg = SReg::CtaId;
    EXPECT_EQ(runOne(i), 3u);
    i.sreg = SReg::NTid;
    EXPECT_EQ(runOne(i), 64u);
    i.sreg = SReg::NCtaId;
    EXPECT_EQ(runOne(i), 10u);
    i.sreg = SReg::WarpId;
    EXPECT_EQ(runOne(i), 1u);
    i.sreg = SReg::LaneId;
    r = executeFunctional(i, warp, 0xff, ctx, gmem, {});
    EXPECT_EQ(r.dst[6], 6u);
}

TEST_F(FunctionalTest, GlobalLoadStore)
{
    gmem.writeWord(0x1000, 0xABCD);
    setReg(0, {0x1000, 0x1004});
    Instruction ld;
    ld.op = Opcode::LDG;
    ld.dst = 1;
    ld.src[0] = 0;
    auto r = executeFunctional(ld, warp, 0b01, ctx, gmem, {});
    EXPECT_EQ(r.dst[0], 0xABCDu);
    EXPECT_EQ(r.addrs[0], 0x1000u);

    setReg(2, {0x42, 0x43});
    Instruction st;
    st.op = Opcode::STG;
    st.src[0] = 0;
    st.src[1] = 2;
    st.imm = 8;
    executeFunctional(st, warp, 0b11, ctx, gmem, {});
    EXPECT_EQ(gmem.readWord(0x1008), 0x42u);
    EXPECT_EQ(gmem.readWord(0x100c), 0x43u);
}

TEST_F(FunctionalTest, SharedLoadStore)
{
    setReg(0, {8});  // byte address -> word 2
    setReg(1, {77});
    Instruction st;
    st.op = Opcode::STS;
    st.src[0] = 0;
    st.src[1] = 1;
    executeFunctional(st, warp, 0b1, ctx, gmem,
                      std::span<Word>(shared));
    EXPECT_EQ(shared[2], 77u);

    Instruction ld;
    ld.op = Opcode::LDS;
    ld.dst = 2;
    ld.src[0] = 0;
    const auto r = executeFunctional(ld, warp, 0b1, ctx, gmem,
                                     std::span<Word>(shared));
    EXPECT_EQ(r.dst[0], 77u);
}

TEST_F(FunctionalTest, SmovIgnoresMask)
{
    setReg(0, {1, 2, 3, 4, 5, 6, 7, 8});
    Instruction smov;
    smov.op = Opcode::SMOV;
    smov.dst = 0;
    smov.src[0] = 0;
    const auto r = executeFunctional(smov, warp, 0b1, ctx, gmem, {});
    EXPECT_EQ(r.writeMask, warp.fullMask());
    EXPECT_EQ(r.dst[7], 8u);
}

TEST_F(FunctionalTest, InactiveLanesUntouched)
{
    setReg(0, {10, 20});
    setReg(1, {1, 2});
    setReg(2, {111, 222});
    const Instruction add = op2(Opcode::IADD, 2, 0, 1);
    const auto r = executeFunctional(add, warp, 0b01, ctx, gmem, {});
    EXPECT_EQ(r.writeMask, 0b01u);
    EXPECT_EQ(r.dst[0], 11u);
    // Lane 1 result is unspecified, but the write mask excludes it.
}

TEST_F(FunctionalTest, SignedOverflowWrapsInBothInterpreters)
{
    struct Case
    {
        Opcode op;
        unsigned arity;
        Word a, b, c, want;
    };
    const std::vector<Case> cases = {
        {Opcode::IADD, 2, 0x7fffffffu, 1, 0, 0x80000000u},           // MAX+1
        {Opcode::ISUB, 2, 0x80000000u, 1, 0, 0x7fffffffu},           // MIN-1
        {Opcode::IMUL, 2, 0x80000000u, 0xffffffffu, 0, 0x80000000u}, // MIN*-1
        {Opcode::IMAD, 3, 0x7fffffffu, 2, 3, 1},                     // MAX*2+3
        {Opcode::IABS, 1, 0x80000000u, 0, 0, 0x80000000u},           // |MIN|
    };

    // Cycle simulator's functional unit, lane 0.
    for (const Case &c : cases) {
        setReg(0, {c.a});
        setReg(1, {c.b});
        setReg(2, {c.c});
        Instruction inst;
        inst.op = c.op;
        inst.dst = 3;
        for (unsigned s = 0; s < c.arity; ++s)
            inst.src[s] = RegIdx(s);
        EXPECT_EQ(runOne(inst), c.want) << opcodeName(c.op);
    }

    // Reference interpreter: one thread stores each result in turn.
    constexpr Addr kOut = 0x400000;
    KernelBuilder kb("wrap");
    const Reg a = kb.reg(), b = kb.reg(), cr = kb.reg(), d = kb.reg();
    const Reg out = kb.reg();
    kb.movi(out, Word(kOut));
    for (unsigned i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        kb.movi(a, c.a);
        kb.movi(b, c.b);
        kb.movi(cr, c.c);
        if (c.arity == 1)
            kb.emit1(c.op, d, a);
        else if (c.arity == 2)
            kb.emit2(c.op, d, a, b);
        else
            kb.emit3(c.op, d, a, b, cr);
        kb.stg(out, d, Word(i * 4));
    }
    GlobalMemory mem;
    referenceExecute(kb.build(), {1, 1}, mem);
    const std::vector<Word> got = mem.readWords(kOut, cases.size());
    for (unsigned i = 0; i < cases.size(); ++i)
        EXPECT_EQ(got[i], cases[i].want) << opcodeName(cases[i].op);
}

} // namespace
} // namespace gs
