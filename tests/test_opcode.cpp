#include <gtest/gtest.h>

#include "isa/instruction.hpp"
#include "isa/opcode.hpp"

namespace gs
{
namespace
{

TEST(Opcode, EveryOpcodeHasTraits)
{
    for (unsigned i = 0; i < unsigned(Opcode::NumOpcodes); ++i) {
        const auto &t = traits(Opcode(i));
        EXPECT_FALSE(t.name.empty()) << i;
        EXPECT_LE(t.numSrcs, 3u) << t.name;
        EXPECT_GT(t.energyUnits, 0.0) << t.name;
    }
}

TEST(OpcodeDeath, OutOfTableOpcodePanics)
{
    EXPECT_DEATH(traits(Opcode::NumOpcodes), "bad opcode");
}

TEST(Opcode, TraitsAreConstantExpressions)
{
    static_assert(traits(Opcode::SIN).pipe == PipeClass::SFU);
    static_assert(kOpcodeTraits.size() == kNumOpcodes);
}

TEST(Opcode, PipeClassesMatchSection21)
{
    EXPECT_EQ(traits(Opcode::FADD).pipe, PipeClass::ALU);
    EXPECT_EQ(traits(Opcode::IMAD).pipe, PipeClass::ALU);
    EXPECT_EQ(traits(Opcode::SIN).pipe, PipeClass::SFU);
    EXPECT_EQ(traits(Opcode::EX2).pipe, PipeClass::SFU);
    EXPECT_EQ(traits(Opcode::LDG).pipe, PipeClass::MEM);
    EXPECT_EQ(traits(Opcode::STS).pipe, PipeClass::MEM);
    EXPECT_EQ(traits(Opcode::BRA).pipe, PipeClass::CTRL);
    EXPECT_EQ(traits(Opcode::BAR).pipe, PipeClass::CTRL);
}

TEST(Opcode, SfuEnergyInThePapersBand)
{
    // Section 1: special-function instructions consume 3-24x the energy
    // of typical arithmetic instructions.
    const double fp = traits(Opcode::FADD).energyUnits;
    for (const Opcode op : {Opcode::SIN, Opcode::COS, Opcode::EX2,
                            Opcode::LG2, Opcode::RCP, Opcode::RSQ,
                            Opcode::SQRT}) {
        const double ratio = traits(op).energyUnits / fp;
        EXPECT_GE(ratio, 3.0) << opcodeName(op);
        EXPECT_LE(ratio, 24.0) << opcodeName(op);
    }
}

TEST(Opcode, Helpers)
{
    EXPECT_TRUE(isLoad(Opcode::LDG));
    EXPECT_TRUE(isLoad(Opcode::LDS));
    EXPECT_FALSE(isLoad(Opcode::STG));
    EXPECT_TRUE(isStore(Opcode::STS));
    EXPECT_TRUE(isGlobalMem(Opcode::STG));
    EXPECT_FALSE(isGlobalMem(Opcode::LDS));
}

TEST(Instruction, SrcCountWithImmediates)
{
    Instruction mov;
    mov.op = Opcode::MOV;
    mov.hasImm = true;
    EXPECT_EQ(mov.numSrcRegs(), 0u);

    Instruction add;
    add.op = Opcode::IADD;
    EXPECT_EQ(add.numSrcRegs(), 2u);
    add.hasImm = true;
    EXPECT_EQ(add.numSrcRegs(), 1u);

    Instruction ld;
    ld.op = Opcode::LDG;
    ld.imm = 16; // memory offset does not consume a source slot
    EXPECT_EQ(ld.numSrcRegs(), 1u);

    Instruction fma;
    fma.op = Opcode::FFMA;
    EXPECT_EQ(fma.numSrcRegs(), 3u);
}

TEST(Instruction, DisassemblyRoundTripMnemonics)
{
    Instruction i;
    i.op = Opcode::FFMA;
    i.dst = 3;
    i.src = {0, 1, 2};
    EXPECT_EQ(i.toString(), "ffma r3, r0, r1, r2");

    Instruction g;
    g.op = Opcode::IADD;
    g.dst = 1;
    g.src[0] = 1;
    g.imm = 4;
    g.hasImm = true;
    g.guard = 2;
    g.guardNeg = true;
    const std::string s = g.toString();
    EXPECT_NE(s.find("@!p2"), std::string::npos);
    EXPECT_NE(s.find("iadd"), std::string::npos);

    Instruction b;
    b.op = Opcode::BRA;
    b.target = 7;
    b.reconv = 9;
    const std::string bs = b.toString();
    EXPECT_NE(bs.find("7"), std::string::npos);
    EXPECT_NE(bs.find("9"), std::string::npos);
}

TEST(Opcode, CmpAndSregNames)
{
    EXPECT_EQ(cmpName(CmpOp::LT), "lt");
    EXPECT_EQ(cmpName(CmpOp::GE), "ge");
    EXPECT_EQ(sregName(SReg::Tid), "tid");
    EXPECT_EQ(sregName(SReg::CtaId), "ctaid");
}

} // namespace
} // namespace gs
