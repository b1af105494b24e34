/**
 * @file
 * Assembler tests: syntax, directives, relaxation, errors.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "interp/interpreter.hh"

namespace crisp
{
namespace
{

TEST(Assembler, MnemonicsAndOperands)
{
    const Program p = assemble(R"(
        .entry start
        .global g 7
        .local x 0
        .local y 1
start:
        add x, y
        and3 x, 1
        cmp.= Accum, 0
        mov g, x
        sub sp[2], 3
        xor [x], y          ; indirect through slot 0
        enter 4
        leave 4
        return 0
        halt
    )");

    Addr pc = p.entry;
    auto next = [&] {
        const Instruction i = p.fetch(pc);
        pc += i.lengthBytes();
        return i;
    };
    EXPECT_EQ(next(), Instruction::alu(Opcode::kAdd, Operand::stack(0),
                                       Operand::stack(1)));
    EXPECT_EQ(next(), Instruction::alu(Opcode::kAnd3, Operand::stack(0),
                                       Operand::imm(1)));
    EXPECT_EQ(next(), Instruction::cmp(Opcode::kCmpEq, Operand::accum(),
                                       Operand::imm(0)));
    const Instruction mv = next();
    EXPECT_EQ(mv.op, Opcode::kMov);
    EXPECT_EQ(mv.dst.mode, AddrMode::kAbs);
    EXPECT_EQ(mv.dst.value, static_cast<std::int32_t>(kDataBase));
    EXPECT_EQ(next(), Instruction::alu(Opcode::kSub, Operand::stack(2),
                                       Operand::imm(3)));
    EXPECT_EQ(next(), Instruction::alu(Opcode::kXor, Operand::ind(0),
                                       Operand::stack(1)));
    EXPECT_EQ(next(), Instruction::enter(4));
    EXPECT_EQ(next(), Instruction::leave(4));
    EXPECT_EQ(next(), Instruction::ret(0));
    EXPECT_EQ(next().op, Opcode::kHalt);
}

TEST(Assembler, BranchPredictionSuffixes)
{
    const Program p = assemble(R"(
        .entry L
L:      iftjmpy L
        iftjmpn L
        iffjmpy L
        iffjmp L
        jmp L
    )");
    Addr pc = p.entry;
    auto next = [&] {
        const Instruction i = p.fetch(pc);
        pc += i.lengthBytes();
        return i;
    };
    Instruction i = next();
    EXPECT_EQ(i.op, Opcode::kIfTJmp);
    EXPECT_TRUE(i.predictTaken);
    i = next();
    EXPECT_EQ(i.op, Opcode::kIfTJmp);
    EXPECT_FALSE(i.predictTaken);
    i = next();
    EXPECT_EQ(i.op, Opcode::kIfFJmp);
    EXPECT_TRUE(i.predictTaken);
    i = next();
    EXPECT_EQ(i.op, Opcode::kIfFJmp);
    EXPECT_FALSE(i.predictTaken);
    EXPECT_EQ(next().op, Opcode::kJmp);
}

TEST(Assembler, ForwardAndBackwardLabels)
{
    const Program p = assemble(R"(
        .entry start
        .global out 0
start:
        jmp fwd
back:
        mov out, 2
        halt
fwd:
        jmp back
    )");
    Interpreter interp(p);
    interp.run();
    EXPECT_EQ(interp.wordAt("out"), 2);
}

TEST(Assembler, BranchRelaxationToLongForm)
{
    // Put > 1022 bytes of instructions between branch and target: the
    // branch must be relaxed to the three-parcel absolute form.
    std::string src = ".entry start\nstart:\n    jmp far\n";
    for (int i = 0; i < 600; ++i)
        src += "    nop\n"; // 600 * 2 = 1200 bytes
    src += "far:\n    halt\n";

    const Program p = assemble(src);
    const Instruction jmp = p.fetch(p.entry);
    EXPECT_EQ(jmp.op, Opcode::kJmp);
    EXPECT_EQ(jmp.bmode, BranchMode::kAbs);
    EXPECT_EQ(jmp.lengthParcels(), 3);

    Interpreter interp(p);
    const InterpResult r = interp.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.instructions, 2u); // jmp + halt, nops skipped
}

TEST(Assembler, ShortBranchKeptWhenInRange)
{
    const Program p = assemble(R"(
        .entry start
start:  jmp next
next:   halt
    )");
    EXPECT_EQ(p.fetch(p.entry).lengthParcels(), 1);
}

TEST(Assembler, IndirectAbsoluteBranch)
{
    const Program p = assemble(R"(
        .entry start
        .global vector 0
        .global out 0
start:
        jmp *vector
        mov out, 99         ; skipped when the vector points at target
target:
        mov out, 5
        halt
    )");
    Interpreter interp(p);
    // The vector is data: point it at `target` (case-statement style).
    interp.memory().write32(*p.lookup("vector"), *p.lookup("target"));
    interp.run();
    EXPECT_EQ(interp.wordAt("out"), 5);
}

TEST(Assembler, IndirectThroughStackBranch)
{
    const Program p = assemble(R"(
        .entry start
        .global vector 0
        .global out 0
start:
        enter 1
        mov sp[0], vector   ; copy the code address into the frame
        jmp *sp[0]
        mov out, 99         ; skipped
target:
        mov out, 7
        halt
    )");
    Interpreter interp(p);
    interp.memory().write32(*p.lookup("vector"), *p.lookup("target"));
    interp.run();
    EXPECT_EQ(interp.wordAt("out"), 7);
}

TEST(Assembler, Errors)
{
    EXPECT_THROW(assemble("bogus x, y\n"), CrispError);
    EXPECT_THROW(assemble("add x, y\n"), CrispError); // unknown idents
    EXPECT_THROW(assemble("jmp nowhere\n"), CrispError);
    EXPECT_THROW(assemble(".global 5bad\n"), CrispError);
    EXPECT_THROW(assemble(".global a\n.global a\n"), CrispError);
    EXPECT_THROW(assemble("add sp[0]\n"), CrispError); // missing operand
    EXPECT_THROW(assemble("mov 5, sp[0]\n"), CrispError); // imm dest
    EXPECT_THROW(assemble("enter -1\n"), CrispError);
    EXPECT_THROW(assemble(".entry nolabel\n"), CrispError);
}

TEST(Assembler, GlobalInitializers)
{
    const Program p = assemble(R"(
        .entry start
        .global a 42
        .global b -7
        .global c 0x1F
        .space arr 4
        .global d 1
start:  halt
    )");
    Interpreter interp(p);
    interp.run();
    EXPECT_EQ(interp.wordAt("a"), 42);
    EXPECT_EQ(interp.wordAt("b"), -7);
    EXPECT_EQ(interp.wordAt("c"), 0x1F);
    EXPECT_EQ(interp.wordAt("d"), 1);
    // Layout: arr occupies 4 words between c and d.
    EXPECT_EQ(*p.lookup("d") - *p.lookup("arr"), 16u);
}

TEST(Assembler, CommentsAndBlankLines)
{
    const Program p = assemble(R"(
        ; full-line comment
        # hash comment
        .entry start

start:  nop   ; trailing comment
        halt  # another
    )");
    EXPECT_EQ(p.staticInstructionCount(), 2);
}

TEST(Assembler, MultipleLabelsOneAddress)
{
    const Program p = assemble(R"(
        .entry start
start:
a: b:   halt
    )");
    EXPECT_EQ(*p.lookup("a"), *p.lookup("b"));
    EXPECT_EQ(*p.lookup("a"), p.entry);
}

TEST(AsmBuilder, ProgrammaticConstruction)
{
    AsmBuilder b;
    b.global("out", 0);
    b.entry("main");
    b.label("main");
    b.emit(Instruction::mov(b.globalOperand("out"), Operand::imm(3)));
    b.branch(Opcode::kJmp, "end");
    b.emit(Instruction::mov(b.globalOperand("out"), Operand::imm(9)));
    b.label("end");
    b.emit(Instruction::halt());
    const Program p = b.link();

    Interpreter interp(p);
    interp.run();
    EXPECT_EQ(interp.wordAt("out"), 3);
}

TEST(Assembler, IndirectBranchKeepsPredictionSuffix)
{
    const Program p = assemble(R"(
        .entry start
        .global tab 0
start:
        iftjmpy *tab
        iffjmpy *sp[1]
        iftjmpn *tab
        halt
    )");
    const std::string dis = p.disassemble();
    EXPECT_NE(dis.find("iftjmpy *@0x8000"), std::string::npos) << dis;
    EXPECT_NE(dis.find("iffjmpy *sp[1]"), std::string::npos) << dis;
    EXPECT_NE(dis.find("iftjmpn *@0x8000"), std::string::npos) << dis;
    EXPECT_TRUE(p.fetch(p.entry).predictTaken);
}

TEST(Assembler, DisassembleRoundTrips)
{
    const Program p = assemble(R"(
        .entry start
        .global g 0
start:
        mov g, 5
loop:   sub g, 1
        cmp.s> g, 0
        iftjmpy loop
        halt
    )");
    const std::string dis = p.disassemble();
    EXPECT_NE(dis.find("loop:"), std::string::npos);
    EXPECT_NE(dis.find("iftjmpy"), std::string::npos);
    EXPECT_NE(dis.find("cmp.s>"), std::string::npos);
    EXPECT_NE(dis.find("halt"), std::string::npos);
}

} // namespace
} // namespace crisp
