/**
 * @file
 * FastEngine tests: the 200-seed x 3-policy three-way differential
 * (fast engine vs. interpreter vs. cycle pipeline), translation-layer
 * superblock structure, and directed tests for the engine's contracts —
 * cancel at superblock boundaries, stores into the text window, fault
 * messages, shared translations, and the instruction budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"
#include "sim/translate.hh"
#include "verify/enginediff.hh"
#include "verify/eventstream.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"

namespace crisp
{
namespace
{

using verify::Divergence;
using verify::LockstepOptions;
using verify::LockstepReport;

// A program whose hot loop is long enough to cross several cancel-poll
// windows: counts a global up to `limit`, then halts.
Program
countingLoop(std::int32_t limit)
{
    Program p;
    const Operand counter = Operand::abs(kDataBase);
    p.append(Instruction::mov(counter, Operand::imm(0)));
    const Addr loop =
        p.append(Instruction::alu(Opcode::kAdd, counter,
                                  Operand::imm(1)));
    const Addr cmp_at = p.append(Instruction::cmp(
        Opcode::kCmpLt, counter, Operand::imm(limit)));
    (void)cmp_at;
    const Addr br = p.textEnd();
    p.append(Instruction::branchRel(
        Opcode::kIfTJmp, static_cast<std::int32_t>(loop - br), true));
    p.append(Instruction::halt());
    return p;
}

// Store a little-endian word into the program's data segment at
// @p addr (grows the segment as needed).
void
pokeDataWord(Program& p, Addr addr, Word v)
{
    const std::size_t off = addr - p.dataBase;
    if (p.data.size() < off + kWordBytes)
        p.data.resize(off + kWordBytes, 0);
    p.data[off] = static_cast<std::uint8_t>(v);
    p.data[off + 1] = static_cast<std::uint8_t>(v >> 8);
    p.data[off + 2] = static_cast<std::uint8_t>(v >> 16);
    p.data[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

// An indirect dispatch through a one-entry jump table at kDataBase:
// the load-image entry points at armA. When @p retarget is set the
// program first copies armB's address (held in a second data word)
// over the entry, so a translation that predicted the load-image word
// must take the runtime-guard miss path. The taken arm's signature
// lands in the accumulator.
Program
mutableDispatch(bool retarget)
{
    Program p;
    const Addr table = kDataBase;
    const Addr alt = kDataBase + kWordBytes;
    if (retarget) {
        p.append(Instruction::mov(Operand::abs(table),
                                  Operand::abs(alt)));
    }
    p.append(Instruction::branchFar(Opcode::kJmp, BranchMode::kIndAbs,
                                    table));
    const Addr arm_a = p.textEnd();
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(11)));
    p.append(Instruction::halt());
    const Addr arm_b = p.textEnd();
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(77)));
    p.append(Instruction::halt());
    pokeDataWord(p, table, static_cast<Word>(arm_a));
    pokeDataWord(p, alt, static_cast<Word>(arm_b));
    return p;
}

// ------------------------------------------- three-way differential

TEST(FastEngineDiff, ThreeWaySweep200Seeds)
{
    const FoldPolicy policies[] = {FoldPolicy::kNone, FoldPolicy::kCrisp,
                                   FoldPolicy::kAll};
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Program prog = verify::generate(seed).link();
        for (const FoldPolicy policy : policies) {
            LockstepOptions opt;
            opt.cfg.foldPolicy = policy;
            const LockstepReport fast =
                verify::runFastLockstep(prog, opt);
            ASSERT_TRUE(fast.ok())
                << "fast vs interp, seed " << seed << " policy "
                << static_cast<int>(policy) << "\n"
                << fast.toString();
            const LockstepReport cycle = verify::runLockstep(prog, opt);
            ASSERT_TRUE(cycle.ok())
                << "cycle vs interp, seed " << seed << " policy "
                << static_cast<int>(policy) << "\n"
                << cycle.toString();
            // Close the triangle: both engines agree with the
            // interpreter on the apparent instruction count.
            EXPECT_EQ(fast.sim.apparent, cycle.sim.apparent);
            EXPECT_EQ(fast.sim.engine, EngineKind::kFast);
            EXPECT_EQ(cycle.sim.engine, EngineKind::kCycle);
            EXPECT_EQ(fast.sim.cycles, 0u);
        }
    }
}

TEST(FastEngineDiff, ObservedAndFreeRunningModesAgree)
{
    // The observer selects a different (per-instruction) loop; both
    // flavours must produce bit-identical statistics and state.
    for (std::uint64_t seed = 300; seed < 320; ++seed) {
        const Program prog = verify::generate(seed).link();
        FastEngine free_run(prog);
        free_run.run();
        FastEngine observed(prog);
        verify::RefRecorder rec;
        observed.run(&rec);
        EXPECT_EQ(free_run.stats(), observed.stats()) << "seed " << seed;
        EXPECT_EQ(free_run.accum(), observed.accum());
        EXPECT_EQ(free_run.sp(), observed.sp());
        EXPECT_EQ(free_run.memory().bytes(), observed.memory().bytes());
    }
}

// ------------------------------------------------- translation layer

TEST(Translation, SuperblockChainsCoverStraightLineRuns)
{
    // Three sequential ops followed by a conditional: the entry run
    // must span exactly the bodies before the compare (the compare
    // folds with the branch, which terminates the run).
    Program p = countingLoop(10);
    Translation tr(p, FoldPolicy::kCrisp);
    const std::uint32_t entry = tr.entryIndex();
    ASSERT_NE(entry, kNoIdx);
    const TOp& first = tr.ops()[entry];
    EXPECT_EQ(first.kind, TKind::kChain);
    // mov; add; then cmp folds with iftjmp -> run of 2, ending at
    // the folded conditional.
    EXPECT_EQ(first.trace, 2u);
    const TOp& term = tr.ops()[first.seqIdx != kNoIdx
                                   ? tr.ops()[entry].seqIdx
                                   : entry];
    (void)term;
    // Walk to the run's terminator and check it is the folded branch.
    std::uint32_t ip = entry;
    for (std::uint32_t n = first.trace; n > 0; --n)
        ip = tr.ops()[ip].seqIdx;
    ASSERT_NE(ip, kNoIdx);
    const TOp& branch = tr.ops()[ip];
    EXPECT_EQ(branch.kind, TKind::kCond);
    EXPECT_TRUE(branch.folded);
    EXPECT_EQ(branch.bodyOp, Opcode::kCmpLt);
    EXPECT_EQ(branch.branchOp, Opcode::kIfTJmp);
    EXPECT_NE(branch.takenIdx, kNoIdx);
    // Control ops head no run; their own handlers dispatch them.
    EXPECT_EQ(branch.trace, 0u);

    // Under kNone nothing folds: the run also swallows the compare.
    Translation none(p, FoldPolicy::kNone);
    EXPECT_EQ(none.ops()[none.entryIndex()].trace, 3u);
}

// --------------------------------------------------- directed: cancel

TEST(FastEngine, CancelStopsAtSuperblockBoundaryAndResumes)
{
    const Program prog = countingLoop(20'000);

    FastEngine straight(prog);
    straight.run();
    ASSERT_TRUE(straight.halted());

    FastEngine eng(prog);
    std::atomic<bool> cancel{true};
    eng.setCancelFlag(&cancel);
    eng.run();
    EXPECT_TRUE(eng.stats().cancelled);
    EXPECT_FALSE(eng.halted());
    EXPECT_FALSE(eng.stats().timedOut);
    // The stop happened on a poll boundary, mid-program.
    EXPECT_GT(eng.stats().apparent, 0u);
    EXPECT_LT(eng.stats().apparent, straight.stats().apparent);

    // Resuming after the flag clears must converge to the exact same
    // final state and cumulative statistics as the uncancelled run —
    // the boundary stop corrupted nothing.
    cancel.store(false);
    eng.run();
    EXPECT_TRUE(eng.halted());
    EXPECT_FALSE(eng.stats().cancelled);
    EXPECT_EQ(eng.stats(), straight.stats());
    EXPECT_EQ(eng.accum(), straight.accum());
    EXPECT_EQ(eng.sp(), straight.sp());
    EXPECT_EQ(eng.memory().bytes(), straight.memory().bytes());
}

TEST(FastEngine, InstructionBudgetSetsTimedOut)
{
    const Program prog = countingLoop(100'000);
    SimConfig cfg;
    cfg.maxCycles = 5'000; // apparent-instruction budget
    FastEngine eng(prog, cfg);
    eng.run();
    EXPECT_TRUE(eng.stats().timedOut);
    EXPECT_FALSE(eng.halted());
    EXPECT_FALSE(eng.stats().cancelled);
    EXPECT_GE(eng.stats().apparent, 5'000u);
    // Overshoot is bounded by the poll interval plus one superblock.
    EXPECT_LT(eng.stats().apparent, 5'000u + 8'192u);
}

// ------------------------------------- directed: stores into text

TEST(FastEngine, StoreIntoTextMatchesOnEveryEngine)
{
    // The program stores into its own first text word, then loops over
    // later text. Execution fetches the linked program, never the
    // image, so the store changes memory and nothing else: the
    // interpreter, a fresh cycle machine, a fresh private engine and
    // an engine borrowing a shared translation that already ran the
    // program must agree on every count and byte.
    Program p;
    p.append(Instruction::mov(Operand::abs(kTextBase),
                              Operand::imm(0x1234)));
    const Operand counter = Operand::abs(kDataBase);
    p.append(Instruction::mov(counter, Operand::imm(0)));
    const Addr loop = p.append(
        Instruction::alu(Opcode::kAdd, counter, Operand::imm(1)));
    p.append(Instruction::cmp(Opcode::kCmpLt, counter, Operand::imm(5)));
    const Addr br = p.textEnd();
    p.append(Instruction::branchRel(
        Opcode::kIfTJmp, static_cast<std::int32_t>(loop - br), true));
    p.append(Instruction::halt());

    Interpreter interp(p);
    const InterpResult ir = interp.run();
    ASSERT_TRUE(ir.halted);
    EXPECT_EQ(ir.instructions, 18u);
    EXPECT_EQ(interp.memory().read32(kTextBase), 0x1234u);

    CrispCpu cpu(p);
    cpu.run();
    ASSERT_TRUE(cpu.halted());
    EXPECT_EQ(cpu.stats().apparent, ir.instructions);
    EXPECT_EQ(cpu.accum(), interp.accum());
    EXPECT_EQ(cpu.flag(), interp.flag());
    EXPECT_EQ(cpu.sp(), interp.sp());
    EXPECT_EQ(cpu.memory().bytes(), interp.memory().bytes());

    FastEngine priv(p);
    priv.run();
    ASSERT_TRUE(priv.halted());

    const Translation warm(p, FoldPolicy::kCrisp);
    FastEngine first(p, SimConfig{}, nullptr, &warm);
    first.run();
    FastEngine shared(p, SimConfig{}, nullptr, &warm);
    shared.run();
    ASSERT_TRUE(shared.halted());

    for (const FastEngine* eng : {&priv, &first, &shared}) {
        EXPECT_EQ(eng->stats().apparent, ir.instructions);
        EXPECT_EQ(eng->stats().opcodeCounts, ir.opcodeCounts);
        EXPECT_EQ(eng->accum(), interp.accum());
        EXPECT_EQ(eng->flag(), interp.flag());
        EXPECT_EQ(eng->sp(), interp.sp());
        EXPECT_EQ(eng->memory().bytes(), interp.memory().bytes());
    }
    EXPECT_EQ(shared.stats(), priv.stats());
}

TEST(FastEngine, OutOfRangeFaultNamesHexAddressOnEveryEngine)
{
    // A load far past the end of memory. The interpreter throws; the
    // cycle machine and the fast engine record the fault. All three
    // give one reason, naming the faulting address in hex.
    const Program p =
        cc::compile("int a[4];\nint main() { return a[1000000]; }\n")
            .program;
    const auto base = p.lookup("a");
    ASSERT_TRUE(base.has_value());
    std::ostringstream want;
    want << "memory access out of range: 0x" << std::hex
         << *base + 4 * 1'000'000;

    std::string interp_reason;
    try {
        Interpreter(p).run();
    } catch (const CrispError& e) {
        interp_reason = e.what();
    }
    EXPECT_EQ(interp_reason, want.str());

    CrispCpu cpu(p);
    EXPECT_TRUE(cpu.run().faulted);
    EXPECT_EQ(cpu.stats().faultReason, want.str());

    FastEngine fast(p);
    EXPECT_TRUE(fast.run().faulted);
    EXPECT_EQ(fast.stats().faultReason, want.str());
}

// ---------------------------------------- directed: straight-line runs

// @p ops accumulator adds in one straight line, then a jump over one
// more add to the halt.
Program
straightRun(int ops)
{
    Program p;
    for (int k = 0; k < ops; ++k)
        p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                                  Operand::imm(1)));
    p.append(Instruction::branchRel(Opcode::kJmp, 2));
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(1)));
    p.append(Instruction::halt());
    return p;
}

// A loop whose body is one straight run of @p body_ops accumulator
// adds, iterated @p limit times through a global counter.
Program
longBodyLoop(int body_ops, std::int32_t limit)
{
    Program p;
    const Operand counter = Operand::abs(kDataBase);
    p.append(Instruction::mov(counter, Operand::imm(0)));
    const Addr loop = p.textEnd();
    for (int k = 0; k < body_ops; ++k)
        p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                                  Operand::imm(1)));
    p.append(Instruction::alu(Opcode::kAdd, counter, Operand::imm(1)));
    p.append(Instruction::cmp(Opcode::kCmpLt, counter,
                              Operand::imm(limit)));
    const Addr br = p.textEnd();
    p.append(Instruction::branchRel(
        Opcode::kIfTJmp, static_cast<std::int32_t>(loop - br), true));
    p.append(Instruction::halt());
    return p;
}

// A loop that calls a leaf `limit` times: the leaf's return is the
// only dynamic-target exit, so the inline-cache counters are exact.
Program
callLoop(std::int32_t limit)
{
    Program p;
    const Addr jmp_at = p.textEnd();
    p.append(Instruction::branchRel(Opcode::kJmp, 4)); // over the leaf
    const Addr leaf = p.textEnd();
    p.append(Instruction::ret(0));
    EXPECT_EQ(p.textEnd(), jmp_at + 4);
    const Operand counter = Operand::abs(kDataBase);
    p.append(Instruction::mov(counter, Operand::imm(0)));
    const Addr loop = p.textEnd();
    p.append(Instruction::branchFar(Opcode::kCall, BranchMode::kAbs,
                                    leaf));
    p.append(Instruction::alu(Opcode::kAdd, counter, Operand::imm(1)));
    p.append(Instruction::cmp(Opcode::kCmpLt, counter,
                              Operand::imm(limit)));
    const Addr br = p.textEnd();
    p.append(Instruction::branchRel(
        Opcode::kIfTJmp, static_cast<std::int32_t>(loop - br), true));
    p.append(Instruction::halt());
    return p;
}

TEST(Translation, TraceLengthIsCappedAtKTraceCap)
{
    // 3 x kTraceCap + 5 adds in one straight line: every run the walker
    // can enter must stay within the cap (this is what bounds the
    // budget/cancel poll overshoot), and no run crosses the jump.
    const int ops = 3 * static_cast<int>(kTraceCap) + 5;
    const Program p = straightRun(ops);
    Translation tr(p, FoldPolicy::kCrisp);
    std::uint32_t longest = 0;
    for (std::uint32_t i = 0; i < tr.size(); ++i) {
        const TOp& t = tr.ops()[i];
        longest = std::max(longest, t.trace);
        EXPECT_LE(t.trace, kTraceCap);
        EXPECT_EQ(t.trace != 0, t.kind == TKind::kChain);
    }
    EXPECT_EQ(longest, kTraceCap);
    EXPECT_EQ(tr.ops()[tr.entryIndex()].trace, kTraceCap);
    // The add past the jump runs alone: the jump ends the run before
    // it and the halt the run after it.
    const TOp* jump = std::find_if(
        tr.ops(), tr.ops() + tr.size(),
        [](const TOp& t) { return t.kind == TKind::kJmp; });
    ASSERT_NE(jump, tr.ops() + tr.size());
    ASSERT_NE(jump->takenIdx, kNoIdx);
    EXPECT_EQ(tr.ops()[jump->takenIdx].trace, 1u);
}

TEST(FastEngine, BudgetOvershootStaysWithinPollPlusTraceCap)
{
    // A loop body longer than kTraceCap is the worst case for the
    // budget poll: the walker debits a whole capped run up front and
    // polls once per run.
    const Program prog =
        longBodyLoop(2 * static_cast<int>(kTraceCap) + 40, 1'000);
    const Translation tr(prog, FoldPolicy::kCrisp);
    const std::uint32_t head = tr.ops()[tr.entryIndex()].seqIdx;
    ASSERT_NE(head, kNoIdx);
    ASSERT_EQ(tr.ops()[head].trace, kTraceCap);
    SimConfig cfg;
    cfg.maxCycles = 5'000;
    FastEngine eng(prog, cfg);
    eng.run();
    EXPECT_TRUE(eng.stats().timedOut);
    EXPECT_GE(eng.stats().apparent, 5'000u);
    EXPECT_LT(eng.stats().apparent, 5'000u + 4'096u + kTraceCap);
}

// ------------------------------------ directed: inline-cache seeding

TEST(FastEngine, SelfPredictedIndirectChainsThroughTable)
{
    // kIndAbs with a clean table: the translator predicts the
    // load-image word and seeds the exit's inline cache with it, so
    // the one dispatch hits and the full lookup never runs.
    const Program prog = mutableDispatch(false);
    Translation trans(prog, FoldPolicy::kCrisp);
    const std::uint32_t bi = trans.indexOf(prog.entry);
    ASSERT_NE(bi, kNoIdx);
    const TOp& jmp = trans.ops()[bi];
    ASSERT_EQ(jmp.kind, TKind::kJmp);
    ASSERT_TRUE(jmp.dynTarget);
    ASSERT_EQ(trans.icSeeds().size(), 1u);
    EXPECT_EQ(trans.icSeeds()[0].first, bi);

    FastEngine eng(prog);
    eng.run();
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(eng.accum(), 11);
    EXPECT_EQ(eng.icMisses(), 0u);
    EXPECT_EQ(eng.icHits(), 1u);

    Interpreter interp(prog);
    interp.run();
    EXPECT_EQ(eng.accum(), interp.accum());
    EXPECT_EQ(eng.stats().branches, 1u);
}

TEST(FastEngine, MispredictedIndirectTakesGuardPath)
{
    // The program overwrites its own jump table before dispatching:
    // the self-prediction (from the load image) is wrong, so the
    // seeded inline cache misses and the full lookup must route
    // control to the re-targeted arm with fully interpreter-equivalent
    // state.
    const Program prog = mutableDispatch(true);
    FastEngine eng(prog);
    eng.run();
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(eng.accum(), 77);
    EXPECT_EQ(eng.icMisses(), 1u);

    Interpreter interp(prog);
    const InterpResult ir = interp.run();
    EXPECT_EQ(eng.accum(), interp.accum());
    EXPECT_EQ(eng.stats().apparent, ir.instructions);
}

TEST(FastEngine, HintedSingletonChainsThroughIndSpDispatch)
{
    // kIndSp cannot self-predict (the slot address depends on SP), so
    // a hint is what seeds its inline cache. A *wrong* hint must cost
    // nothing but the cache miss.
    Program p;
    const Addr table = kDataBase;
    p.append(Instruction::mov(Operand::stack(0), Operand::abs(table)));
    const Addr branch_pc = p.textEnd();
    p.append(Instruction::branchFar(Opcode::kJmp, BranchMode::kIndSp,
                                    0));
    const Addr arm_a = p.textEnd();
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(11)));
    p.append(Instruction::halt());
    const Addr arm_b = p.textEnd();
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(77)));
    p.append(Instruction::halt());
    pokeDataWord(p, table, static_cast<Word>(arm_a));

    // Unhinted: nothing to seed, so the first dispatch misses.
    const Translation bare(p, FoldPolicy::kCrisp);
    const std::uint32_t bi = bare.indexOf(branch_pc);
    ASSERT_NE(bi, kNoIdx);
    EXPECT_TRUE(bare.icSeeds().empty());
    FastEngine unhinted(p);
    unhinted.run();
    ASSERT_TRUE(unhinted.halted());
    EXPECT_EQ(unhinted.icMisses(), 1u);

    // Correct singleton hint: the seed is installed and hits.
    IndirectHints hints;
    hints.targets[branch_pc] = {arm_a};
    const Translation hinted(p, FoldPolicy::kCrisp, nullptr, &hints);
    ASSERT_EQ(hinted.icSeeds().size(), 1u);
    EXPECT_EQ(hinted.icSeeds()[0].first, bi);
    EXPECT_EQ(hinted.icSeeds()[0].second, arm_a);

    FastEngine eng(p, SimConfig{}, nullptr, nullptr, &hints);
    eng.run();
    ASSERT_TRUE(eng.halted());
    EXPECT_EQ(eng.accum(), 11);
    EXPECT_EQ(eng.icMisses(), 0u);

    // Wrong hint: the cache is checked against the word actually
    // read, so the result is unchanged.
    IndirectHints wrong;
    wrong.targets[branch_pc] = {arm_b};
    FastEngine eng2(p, SimConfig{}, nullptr, nullptr, &wrong);
    eng2.run();
    ASSERT_TRUE(eng2.halted());
    EXPECT_EQ(eng2.accum(), 11);
    EXPECT_EQ(eng2.icMisses(), 1u);
    EXPECT_EQ(eng2.stats(), eng.stats());

    Interpreter interp(p);
    interp.run();
    EXPECT_EQ(eng.accum(), interp.accum());
}

// ------------------------------------------ directed: inline caches

TEST(FastEngine, ReturnInlineCacheHitsOnLoopBackEdge)
{
    const std::int32_t limit = 500;
    const Program prog = callLoop(limit);
    FastEngine eng(prog);
    eng.run();
    ASSERT_TRUE(eng.halted());
    // One miss installs the cache; every later return hits it. The
    // counters are non-architectural, so they must not perturb stats.
    EXPECT_EQ(eng.icMisses(), 1u);
    EXPECT_EQ(eng.icHits(), static_cast<std::uint64_t>(limit) - 1);

    Interpreter interp(prog);
    const InterpResult ir = interp.run();
    EXPECT_EQ(eng.stats().apparent, ir.instructions);
    EXPECT_EQ(eng.accum(), interp.accum());
}

/** Inline caches are numbered over the ops that read one (returns and
 *  dynamic-target branches, at any parcel), in table order, and no
 *  other op gets one. The op stays 72 bytes. */
TEST(Translation, OneInlineCachePerOpThatReadsOne)
{
    EXPECT_EQ(sizeof(TOp), 72u);
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const Program prog = verify::generate(seed).link();
        for (const FoldPolicy fp : {FoldPolicy::kNone, FoldPolicy::kCrisp,
                                    FoldPolicy::kAll}) {
            const Translation tr(prog, fp);
            std::uint32_t next = 0;
            for (std::size_t i = 0; i < tr.size(); ++i) {
                const TOp& t = tr.ops()[i];
                if (t.dynTarget || t.kind == TKind::kRet) {
                    EXPECT_EQ(t.slot, next++) << "seed " << seed;
                }
            }
            EXPECT_EQ(tr.icCount(), next) << "seed " << seed;
        }
    }
}

// ------------------------------------- directed: shared translations

TEST(FastEngine, SharedTranslationMatchesPrivateAcrossReplays)
{
    for (std::uint64_t seed = 900; seed < 910; ++seed) {
        const Program prog = verify::generate(seed).link();
        PredecodeCache shared(prog);
        const Translation warm(prog, FoldPolicy::kCrisp, &shared);

        SimConfig cfg;
        for (int r = 0; r < 3; ++r) {
            FastEngine warm_eng(prog, cfg, &shared, &warm);
            FastEngine cold_eng(prog, cfg);
            warm_eng.run();
            cold_eng.run();
            EXPECT_EQ(warm_eng.stats(), cold_eng.stats())
                << "seed " << seed << " replay " << r;
            EXPECT_EQ(warm_eng.accum(), cold_eng.accum());
            EXPECT_EQ(warm_eng.memory().bytes(),
                      cold_eng.memory().bytes());
        }
    }
}

TEST(FastEngine, SharedTranslationRejectsMismatchedConfig)
{
    const Program prog = countingLoop(10);
    const Translation warm(prog, FoldPolicy::kCrisp);
    SimConfig cfg;
    cfg.foldPolicy = FoldPolicy::kAll;
    EXPECT_THROW(FastEngine(prog, cfg, nullptr, &warm), CrispError);
}

// --------------------------------------------------------- misc state

TEST(FastEngine, StatsCarryEngineKindAndNoTiming)
{
    const Program prog = countingLoop(100);
    FastEngine eng(prog);
    const SimStats& st = eng.run();
    EXPECT_EQ(st.engine, EngineKind::kFast);
    EXPECT_EQ(st.cycles, 0u);
    EXPECT_EQ(st.dicHits, 0u);
    EXPECT_TRUE(st.halted);

    Interpreter interp(prog);
    const InterpResult ir = interp.run();
    EXPECT_EQ(st.apparent, ir.instructions);
    EXPECT_EQ(st.branches, ir.branches);
    EXPECT_EQ(st.opcodeCounts, ir.opcodeCounts);
    EXPECT_EQ(eng.accum(), interp.accum());
}

TEST(FastEngine, SharedPredecodeCacheMatchesPrivate)
{
    const Program prog = verify::generate(42).link();
    PredecodeCache shared(prog);
    shared.warmAll(FoldPolicy::kCrisp);
    FastEngine with_shared(prog, {}, &shared);
    with_shared.run();
    FastEngine private_cache(prog);
    private_cache.run();
    EXPECT_EQ(with_shared.stats(), private_cache.stats());
    EXPECT_EQ(with_shared.memory().bytes(),
              private_cache.memory().bytes());
}

} // namespace
} // namespace crisp
