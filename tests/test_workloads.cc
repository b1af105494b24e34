/**
 * @file
 * Workload suite tests: every bundled workload compiles, terminates,
 * matches its golden values (the literal table in workloads.cc) on the
 * interpreter, the cycle pipeline, the fast engine and the
 * delayed-branch machine, and exhibits the branch statistics the
 * Table 1 reproduction depends on. The three `*MatchesMirror` tests
 * keep the names they had when C++ mirrors computed those values.
 */

#include <gtest/gtest.h>

#include "baseline/delayed.hh"
#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "predict/predictors.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"
#include "workloads/workloads.hh"

namespace crisp
{
namespace
{

class WorkloadGolden : public ::testing::TestWithParam<const char*>
{
};

TEST_P(WorkloadGolden, InterpreterMatchesMirror)
{
    const Workload& w = workload(GetParam());
    const auto r = cc::compile(w.source);
    Interpreter interp(r.program);
    const InterpResult res = interp.run(500'000'000);
    ASSERT_TRUE(res.halted);
    for (const auto& [sym, val] : w.expectedGlobals)
        EXPECT_EQ(interp.wordAt(sym), val) << sym;
    if (w.checkAccum) {
        EXPECT_EQ(interp.accum(), w.expectedAccum);
    }
}

TEST_P(WorkloadGolden, PipelineMatchesMirror)
{
    const Workload& w = workload(GetParam());
    const auto r = cc::compile(w.source);
    Interpreter interp(r.program);
    const InterpResult ri = interp.run(500'000'000);

    CrispCpu cpu(r.program);
    const SimStats& rs = cpu.run();
    ASSERT_TRUE(rs.halted);
    EXPECT_EQ(rs.apparent, ri.instructions);
    for (const auto& [sym, val] : w.expectedGlobals)
        EXPECT_EQ(cpu.wordAt(sym), val) << sym;
    if (w.checkAccum) {
        EXPECT_EQ(cpu.accum(), w.expectedAccum);
    }
    // Folding must be active and self-consistent.
    EXPECT_GT(rs.foldedBranches, 0u);
    EXPECT_EQ(rs.apparent - rs.issued, rs.foldedBranches);
}

TEST_P(WorkloadGolden, FastEngineMatchesGolden)
{
    const Workload& w = workload(GetParam());
    const auto r = cc::compile(w.source);
    Interpreter interp(r.program);
    const InterpResult ri = interp.run(500'000'000);

    FastEngine eng(r.program);
    const SimStats& s = eng.run();
    ASSERT_TRUE(s.halted);
    EXPECT_EQ(s.apparent, ri.instructions);
    for (const auto& [sym, val] : w.expectedGlobals)
        EXPECT_EQ(eng.wordAt(sym), val) << sym;
    if (w.checkAccum) {
        EXPECT_EQ(eng.accum(), w.expectedAccum);
    }
}

TEST_P(WorkloadGolden, DelayedMachineMatchesMirror)
{
    const Workload& w = workload(GetParam());
    cc::CompileOptions opts;
    opts.delaySlots = true;
    const auto r = cc::compile(w.source, opts);
    DelayedBranchCpu cpu(r.program);
    const DelayedStats& s = cpu.run(1'000'000'000);
    ASSERT_TRUE(s.halted);
    for (const auto& [sym, val] : w.expectedGlobals)
        EXPECT_EQ(cpu.wordAt(sym), val) << sym;
    if (w.checkAccum) {
        EXPECT_EQ(cpu.accum(), w.expectedAccum);
    }
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadGolden,
                         ::testing::Values("fig3", "troff", "ccomp",
                                           "drc", "dhry", "cwhet",
                                           "puzzle", "sieve", "sort",
                                           "matmul", "crc8", "quant",
                                           "lex", "vmtrace",
                                           "vmmode"));

TEST(Workloads, RegistryIsComplete)
{
    EXPECT_EQ(allWorkloads().size(), 15u);
    EXPECT_THROW(workload("nonesuch"), CrispError);
    for (const Workload& w : allWorkloads()) {
        EXPECT_FALSE(w.description.empty());
        EXPECT_FALSE(w.source.empty());
    }
}

TEST(Workloads, Fig3ParameterizedTripCount)
{
    for (int loops : {1, 2, 64, 1024}) {
        const auto r = cc::compile(fig3Source(loops));
        Interpreter interp(r.program);
        ASSERT_TRUE(interp.run(200'000'000).halted) << loops;
        EXPECT_EQ(interp.accum(), fig3Expected(loops)) << loops;
    }
}

TEST(Workloads, Fig3MatchesPaperInstructionMix)
{
    // The paper's Table 2 proportions: add 31.55%, if-jump 21.04%,
    // cmp 21.04%, and 10.52%, jump 5.27%.
    const auto r = cc::compile(fig3Source(1024));
    Interpreter interp(r.program);
    const InterpResult res = interp.run();

    EXPECT_EQ(res.count(Opcode::kAdd), 3072u);
    EXPECT_EQ(res.count(Opcode::kIfTJmp) + res.count(Opcode::kIfFJmp),
              2048u);
    EXPECT_EQ(res.count(Opcode::kAnd3) + res.count(Opcode::kAnd), 1024u);
    EXPECT_EQ(res.count(Opcode::kJmp), 512u);
    EXPECT_EQ(res.count(Opcode::kCmpEq) + res.count(Opcode::kCmpLt),
              2048u);
    // Total within a few instructions of the paper's 9,734.
    EXPECT_NEAR(static_cast<double>(res.instructions), 9734.0, 8.0);
}

TEST(Workloads, Fig3CaseDReachesPaperSpeedup)
{
    // The headline claim: full CRISP (fold+predict+spread) is ~2.0x the
    // naive configuration, with apparent CPI ~0.74.
    const std::string src = fig3Source(1024);

    cc::CompileOptions naive;
    naive.spread = false;
    naive.predict = cc::PredictMode::kAllNotTaken;
    SimConfig nofold;
    nofold.foldPolicy = FoldPolicy::kNone;
    CrispCpu a(cc::compile(src, naive).program, nofold);
    const std::uint64_t base = a.run().cycles;

    cc::CompileOptions full;
    CrispCpu d(cc::compile(src, full).program);
    const SimStats& sd = d.run();

    const double speedup =
        static_cast<double>(base) / static_cast<double>(sd.cycles);
    EXPECT_NEAR(speedup, 2.0, 0.06);
    EXPECT_NEAR(sd.apparentCpi(), 0.74, 0.01);
    EXPECT_NEAR(sd.issuedCpi(), 1.01, 0.01);
}

TEST(Workloads, Table1ShapesHold)
{
    // The qualitative Table 1 claims, as measurable properties:
    //  (a) on the three "benchmark" programs static >= 1-bit dynamic;
    //  (b) on the three "large" proxies, dynamic is not dramatically
    //      better than static (within a few points).
    for (const char* name : {"dhry", "cwhet", "puzzle"}) {
        const Workload& w = workload(name);
        const auto r = cc::compile(w.source);
        Interpreter interp(r.program);
        BranchTraceRecorder rec;
        interp.run(500'000'000, &rec);
        const double st = evaluateStaticOracle(rec.events).rate();
        CounterPredictor p1(1);
        const double d1 = evaluateDirection(rec.events, p1).rate();
        EXPECT_GT(st, d1) << name;
    }
    for (const char* name : {"troff", "ccomp", "drc"}) {
        const Workload& w = workload(name);
        const auto r = cc::compile(w.source);
        Interpreter interp(r.program);
        BranchTraceRecorder rec;
        interp.run(500'000'000, &rec);
        const double st = evaluateStaticOracle(rec.events).rate();
        CounterPredictor p2(2);
        const double d2 = evaluateDirection(rec.events, p2).rate();
        EXPECT_LT(d2 - st, 0.08) << name;
    }
}

TEST(Workloads, ShortBranchFormatDominates)
{
    // "around 95% of the branches executed are encoded in the one
    // parcel instruction format"
    std::uint64_t branches = 0;
    std::uint64_t short_form = 0;
    for (const Workload& w : allWorkloads()) {
        const auto r = cc::compile(w.source);
        Interpreter interp(r.program);
        const InterpResult res = interp.run(500'000'000);
        branches += res.branches;
        short_form += res.shortBranches;
    }
    EXPECT_GT(static_cast<double>(short_form) /
                  static_cast<double>(branches),
              0.85);
}

} // namespace
} // namespace crisp
