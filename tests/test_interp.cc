/**
 * @file
 * Functional interpreter tests: per-instruction semantics, stack
 * discipline, traces and histograms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "asm/assembler.hh"
#include "interp/interpreter.hh"

#if defined(__SANITIZE_ADDRESS__)
#define CRISP_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRISP_TEST_ASAN 1
#endif
#endif

namespace crisp
{
namespace
{

/** Assemble and run to halt; return the interpreter for inspection. */
Interpreter
runAsm(const std::string& body)
{
    const Program p = assemble(body);
    Interpreter interp(p);
    interp.run(10'000'000);
    EXPECT_TRUE(interp.halted());
    return interp;
}

TEST(Interp, MovAndArithmetic)
{
    auto m = runAsm(R"(
        .entry s
        .global a 0
        .global b 0
s:      mov a, 6
        mov b, a
        add b, 4
        sub a, 2
        mul b, a            ; b = 10 * 4
        halt
    )");
    EXPECT_EQ(m.wordAt("a"), 4);
    EXPECT_EQ(m.wordAt("b"), 40);
}

TEST(Interp, AccumulatorOps)
{
    auto m = runAsm(R"(
        .entry s
        .global r 0
s:      enter 2
        mov sp[0], 12
        and3 sp[0], 5       ; Accum = 12 & 5 = 4
        mov r, Accum
        add3 r, 1           ; Accum = 5
        mov r, Accum
        halt
    )");
    EXPECT_EQ(m.wordAt("r"), 5);
    EXPECT_EQ(m.accum(), 5);
}

TEST(Interp, CompareSetsOnlyFlag)
{
    auto m = runAsm(R"(
        .entry s
        .global r 1
s:      cmp.s< r, 5
        halt
    )");
    EXPECT_TRUE(m.flag());
    EXPECT_EQ(m.wordAt("r"), 1); // compare wrote nothing but the flag
}

TEST(Interp, ConditionalBranchBothSenses)
{
    auto m = runAsm(R"(
        .entry s
        .global t 0
        .global f 0
s:      cmp.= t, 0          ; true
        iftjmpy L1
        mov t, 99
L1:     cmp.!= t, 0         ; false
        iffjmpn L2
        mov f, 99
L2:     halt
    )");
    EXPECT_EQ(m.wordAt("t"), 0);
    EXPECT_EQ(m.wordAt("f"), 0);
}

TEST(Interp, EnterLeaveStackDiscipline)
{
    auto m = runAsm(R"(
        .entry s
        .global spv 0
s:      enter 3
        mov sp[0], 1
        mov sp[1], 2
        mov sp[2], 3
        add sp[0], sp[1]
        add sp[0], sp[2]
        mov spv, sp[0]
        leave 3
        halt
    )");
    EXPECT_EQ(m.wordAt("spv"), 6);
    // leave restored SP to the initial top of stack.
    EXPECT_EQ(m.sp(), (kDefaultMemBytes - kWordBytes) &
                          ~(kWordBytes - 1));
}

TEST(Interp, CallReturnRoundTrip)
{
    auto m = runAsm(R"(
        .entry s
        .global r 0
s:      call fn
        mov r, Accum
        halt
fn:     enter 1
        mov sp[0], 21
        add sp[0], sp[0]
        mov Accum, sp[0]
        return 1
    )");
    EXPECT_EQ(m.wordAt("r"), 42);
}

TEST(Interp, NestedCalls)
{
    auto m = runAsm(R"(
        .entry s
        .global depth 0
s:      call f1
        halt
f1:     enter 0
        add depth, 1
        call f2
        return 0
f2:     enter 0
        add depth, 1
        call f3
        return 0
f3:     enter 0
        add depth, 1
        return 0
    )");
    EXPECT_EQ(m.wordAt("depth"), 3);
}

TEST(Interp, ArgumentPassingConvention)
{
    // Caller: enter k, write args into the new area, call; callee sees
    // arg j at sp[frame + 1 + j].
    auto m = runAsm(R"(
        .entry s
        .global r 0
s:      enter 2
        mov sp[0], 30
        mov sp[1], 12
        call sub2
        leave 2
        mov r, Accum
        halt
sub2:   enter 1             ; one local
        mov sp[0], sp[2]    ; local = arg0  (frame 1 + ret -> args at 2)
        sub sp[0], sp[3]    ; local -= arg1
        mov Accum, sp[0]
        return 1
    )");
    EXPECT_EQ(m.wordAt("r"), 18);
}

TEST(Interp, IndirectOperands)
{
    auto m = runAsm(R"(
        .entry s
        .global cell 11
        .global r 0
s:      enter 1
        mov sp[0], cellp    ; pointer value
        add [sp[0]], 4      ; cell += 4 via pointer
        mov r, [sp[0]]
        halt
        .global cellp 0
    )");
    // cellp must hold &cell; patch it (the assembler has no &-of).
    // Easier: re-run with the pointer pre-set.
    const Program p = assemble(R"(
        .entry s
        .global cell 11
        .global cellp 0
        .global r 0
s:      enter 1
        mov sp[0], cellp
        add [sp[0]], 4
        mov r, [sp[0]]
        halt
    )");
    Interpreter interp(p);
    interp.memory().write32(*p.lookup("cellp"), *p.lookup("cell"));
    interp.run();
    EXPECT_EQ(interp.wordAt("cell"), 15);
    EXPECT_EQ(interp.wordAt("r"), 15);
    (void)m;
}

TEST(Interp, OpcodeHistogram)
{
    const Program p = assemble(R"(
        .entry s
        .global g 0
s:      mov g, 3
L:      sub g, 1
        cmp.s> g, 0
        iftjmpy L
        halt
    )");
    Interpreter interp(p);
    const InterpResult r = interp.run();
    EXPECT_EQ(r.count(Opcode::kMov), 1u);
    EXPECT_EQ(r.count(Opcode::kSub), 3u);
    EXPECT_EQ(r.count(Opcode::kCmpGt), 3u);
    EXPECT_EQ(r.count(Opcode::kIfTJmp), 3u);
    EXPECT_EQ(r.count(Opcode::kHalt), 1u);
    EXPECT_EQ(r.instructions, 11u);
    EXPECT_EQ(r.branches, 3u);
    EXPECT_EQ(r.shortBranches, 3u);

    const std::string table = r.histogramTable();
    EXPECT_NE(table.find("Total of 11 instructions"), std::string::npos);
}

TEST(Interp, BranchTraceRecords)
{
    const Program p = assemble(R"(
        .entry s
        .global g 0
s:      mov g, 2
L:      sub g, 1
        cmp.s> g, 0
        iftjmpy L
        halt
    )");
    Interpreter interp(p);
    BranchTraceRecorder rec;
    interp.run(1'000'000, &rec);

    ASSERT_EQ(rec.events.size(), 2u);
    EXPECT_TRUE(rec.events[0].conditional);
    EXPECT_TRUE(rec.events[0].taken);
    EXPECT_TRUE(rec.events[0].predictTaken);
    EXPECT_FALSE(rec.events[1].taken);
    EXPECT_EQ(rec.events[0].pc, rec.events[1].pc);
    EXPECT_EQ(rec.events[0].target, *p.lookup("L"));
    EXPECT_TRUE(rec.events[0].shortForm);
}

TEST(Interp, StepLimitStopsRunawayPrograms)
{
    const Program p = assemble(R"(
        .entry s
s:      jmp s
    )");
    Interpreter interp(p);
    const InterpResult r = interp.run(1000);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instructions, 1000u);
}

TEST(Interp, UnknownSymbolThrows)
{
    const Program p = assemble(".entry s\ns: halt\n");
    Interpreter interp(p);
    EXPECT_THROW(interp.wordAt("missing"), CrispError);
}

TEST(Interp, MemoryBoundsChecked)
{
    const Program p = assemble(R"(
        .entry s
s:      mov @0x3FFFF, 1     ; last byte: a 32-bit write must fault
        halt
    )");
    Interpreter interp(p);
    EXPECT_THROW(interp.run(), CrispError);
}

TEST(MemoryImage, LittleEndian)
{
    Program p;
    p.text = {0x1234};
    MemoryImage m(p);
    m.write32(0x8000, 0xA1B2C3D4u);
    EXPECT_EQ(m.read8(0x8000), 0xD4);
    EXPECT_EQ(m.read8(0x8003), 0xA1);
    EXPECT_EQ(m.read16(0x8000), 0xC3D4);
    EXPECT_EQ(m.read32(0x8000), 0xA1B2C3D4u);
    // The text parcel landed at the text base.
    EXPECT_EQ(m.read16(kTextBase), 0x1234);
}

/** A program that writes the top of its stack and a word near the top
 *  of a 256 KiB image, with @p mem_bytes of memory. */
Program
highWriter(Addr mem_bytes)
{
    Program p = assemble(R"(
        .entry s
        .global g 7
s:      call fn
        mov @0x3FF00, -1
        halt
fn:     enter 1
        mov sp[0], -1
        return 1
    )");
    p.memBytes = mem_bytes;
    return p;
}

/** @p p's image built byte by byte: text parcels and data in place,
 *  zero everywhere else. */
std::vector<std::uint8_t>
freshImage(const Program& p)
{
    std::vector<std::uint8_t> want(p.memBytes, 0);
    for (std::size_t i = 0; i < p.text.size(); ++i) {
        want[p.textBase + 2 * i] = static_cast<std::uint8_t>(p.text[i]);
        want[p.textBase + 2 * i + 1] =
            static_cast<std::uint8_t>(p.text[i] >> 8);
    }
    std::copy(p.data.begin(), p.data.end(), want.begin() + p.dataBase);
    return want;
}

TEST(MemoryImage, ReusedBufferLoadsLikeAFreshOne)
{
    // A one-byte image takes any stashed buffer, so two of them empty
    // this thread's stash. The two machines built next, as in a
    // lockstep leg, then refill it with buffers they wrote, and a
    // machine of the other size must see none of what they wrote.
    Program tiny;
    tiny.textBase = 0;
    tiny.dataBase = 0;
    tiny.memBytes = 1;
    const std::pair<Addr, Addr> sizes[] = {{0x80000, 0x40000},
                                           {0x40000, 0x80000}};
    for (const auto& [first, next] : sizes) {
        const Program dirty = highWriter(first);
        {
            const MemoryImage hold1(tiny);
            const MemoryImage hold2(tiny);
            Interpreter a(dirty);
            Interpreter b(dirty);
            a.run();
            b.run();
            ASSERT_TRUE(a.halted() && b.halted());
            ASSERT_EQ(a.memory().read32(0x3FF00), 0xFFFFFFFFu);
        }
        const Program clean = highWriter(next);
        const Interpreter m(clean);
        const std::vector<std::uint8_t> want = freshImage(clean);
        const auto& got = m.memory().bytes();
        ASSERT_EQ(got.size(), want.size()) << first << " -> " << next;
        const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
        EXPECT_TRUE(diff.first == got.end())
            << first << " -> " << next << ": byte 0x" << std::hex
            << (diff.first - got.begin()) << " is stale";
        EXPECT_NO_THROW(m.memory().read32(next - 4));
        EXPECT_THROW(m.memory().read32(next), CrispError);
    }
}

TEST(MemoryImageDeathTest, ReleasedBufferIsPoisonedUnderAsan)
{
#ifndef CRISP_TEST_ASAN
    GTEST_SKIP() << "needs AddressSanitizer";
#else
    // The stash keeps the buffer alive, so only its poisoning lets
    // ASan see a read through a destroyed machine's image.
    const volatile std::uint8_t* stale = nullptr;
    {
        const Interpreter m(highWriter(kDefaultMemBytes));
        stale = m.memory().bytes().data();
    }
    EXPECT_DEATH((void)stale[kTextBase], "AddressSanitizer");
#endif
}

} // namespace
} // namespace crisp
