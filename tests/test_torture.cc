/**
 * @file
 * Torture-subsystem tests: generator determinism and coverage, the
 * lockstep differential runner over a large seed sweep, every
 * fault-injection hook (benign hints vs. detected corruption), the
 * cycle- and step-limit watchdogs, and the delta-debugging shrinker.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "sim/cpu.hh"
#include "verify/enginediff.hh"
#include "verify/faults.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"
#include "verify/reference.hh"
#include "verify/shrink.hh"
#include "workloads/workloads.hh"

namespace crisp
{
namespace
{

using verify::Divergence;
using verify::FaultConfig;
using verify::FaultInjector;
using verify::FaultKind;
using verify::GenProgram;
using verify::LockstepOptions;
using verify::LockstepReport;
using verify::Segment;

// ---------------------------------------------------------- generator

TEST(Generator, DeterministicAcrossCalls)
{
    const GenProgram a = verify::generate(42);
    const GenProgram b = verify::generate(42);
    EXPECT_EQ(a.listing(), b.listing());
    const GenProgram c = verify::generate(43);
    EXPECT_NE(a.listing(), c.listing());
}

TEST(Generator, ProgramsTerminateOnTheInterpreter)
{
    for (std::uint64_t s = 500; s < 540; ++s) {
        const Program p = verify::generate(s).link();
        Interpreter interp(p);
        EXPECT_TRUE(interp.run(1'000'000).halted)
            << "seed " << s << " did not halt";
    }
}

TEST(Generator, SweepCoversAllShapes)
{
    // Aggregate coverage over a window of seeds: every segment kind,
    // both indirect dispatch styles, far-relaxed branches and all
    // three encoded instruction lengths must appear.
    bool saw_kind[5] = {};
    bool saw_via_sp = false;
    bool saw_via_abs = false;
    bool saw_far = false;
    std::map<int, int> lengths;
    for (std::uint64_t s = 1; s <= 60; ++s) {
        const GenProgram gp = verify::generate(s);
        for (const Segment& seg : gp.segs) {
            saw_kind[static_cast<int>(seg.kind)] = true;
            if (seg.kind == Segment::Kind::kSwitch) {
                (seg.indirectViaSp ? saw_via_sp : saw_via_abs) = true;
            }
            saw_far |= seg.farPad;
        }
        for (const auto& [len, n] : gp.link().staticLengthHistogram())
            lengths[len] += n;
    }
    for (int k = 0; k < 5; ++k)
        EXPECT_TRUE(saw_kind[k]) << "segment kind " << k << " missing";
    EXPECT_TRUE(saw_via_sp);
    EXPECT_TRUE(saw_via_abs);
    EXPECT_TRUE(saw_far);
    EXPECT_GT(lengths[1], 0);
    EXPECT_GT(lengths[3], 0);
    EXPECT_GT(lengths[5], 0);
}

// ------------------------------------------------------ lockstep sweep

struct TortureCase
{
    int seed = 0;
};

class TortureSeeds : public ::testing::TestWithParam<int>
{
};

/** Each fold policy, plus a corner machine: a tiny DIC, slow memory
 *  and a short queue keep the PDR window gate and the prefetch clipping
 *  busy, under a dynamic predictor and the retire-time decode checker. */
std::vector<SimConfig>
tortureConfigs()
{
    std::vector<SimConfig> cfgs;
    for (FoldPolicy fp :
         {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
        cfgs.emplace_back();
        cfgs.back().foldPolicy = fp;
    }
    SimConfig corner;
    corner.dicEntries = 8;
    corner.memLatency = 5;
    corner.queueParcels = 6;
    corner.predictor = PredictorKind::kDynamic2;
    corner.checkDecode = true;
    cfgs.push_back(corner);
    return cfgs;
}

TEST_P(TortureSeeds, PipelineMatchesInterpreterAcrossFoldPolicies)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    const Program prog = verify::generate(seed).link();
    const std::vector<SimConfig> cfgs = tortureConfigs();
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        LockstepOptions opt;
        opt.cfg = cfgs[c];
        const LockstepReport rep = verify::runLockstep(prog, opt);
        EXPECT_TRUE(rep.ok())
            << "seed " << seed << " config " << c << ":\n"
            << rep.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureSeeds, ::testing::Range(1, 201));

// ------------------------------------------------------ fault injection

/**
 * A handwritten workload with folded conditional branches, spread
 * compares and a call — every fault kind finds opportunities here, and
 * its timing is prediction-sensitive.
 */
Program
faultWorkload()
{
    const char* src = R"(
        .entry main
        .global acc 0
        .global n 0
        .local i 0
main:   enter 1
        mov n, 25
        mov i, 0
top:    add acc, 3
        cmp.s< i, 12
        add i, 1             ; spread filler between compare and branch
        iftjmpy skip
        add acc, 100
skip:   cmp.s< i, 25
        iftjmpy top
        call leaf
        mov Accum, acc
        halt
leaf:   enter 2
        mov sp[0], 9
        add acc, 1
        return 2
    )";
    return assemble(src);
}

LockstepReport
runWithFault(const Program& prog, FaultKind kind, bool check_decode,
             FaultInjector* out_inj = nullptr,
             std::uint64_t period = 3)
{
    FaultConfig fc;
    fc.kind = kind;
    fc.seed = 1;
    fc.period = period;
    FaultInjector inj(fc);
    LockstepOptions opt;
    opt.cfg.checkDecode = check_decode;
    opt.hooks = &inj;
    const LockstepReport rep = verify::runLockstep(prog, opt);
    if (out_inj != nullptr)
        *out_inj = inj;
    return rep;
}

TEST(FaultInjection, BaselineIsClean)
{
    const Program prog = faultWorkload();
    LockstepOptions opt;
    opt.cfg.checkDecode = true;
    const LockstepReport rep = verify::runLockstep(prog, opt);
    ASSERT_TRUE(rep.ok()) << rep.toString();
}

TEST(FaultInjection, FlippedPredictionBitIsBenignButCostsCycles)
{
    const Program prog = faultWorkload();
    const LockstepReport base =
        verify::runLockstep(prog, LockstepOptions{});
    ASSERT_TRUE(base.ok());

    FaultInjector inj({});
    const LockstepReport rep = runWithFault(
        prog, FaultKind::kFlipPredictBit, /*check_decode=*/true, &inj,
        /*period=*/1);
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_GT(inj.fires(), 0);
    // The loop's back edge is predicted taken and overwhelmingly taken:
    // inverting the bit must show up in the cycle count and in the
    // mispredict counter, but never in architecture.
    EXPECT_NE(rep.sim.cycles, base.sim.cycles);
    EXPECT_GT(rep.sim.mispredicts, base.sim.mispredicts);
}

TEST(FaultInjection, UnfoldedPairIsBenign)
{
    const Program prog = faultWorkload();
    const LockstepReport base =
        verify::runLockstep(prog, LockstepOptions{});
    ASSERT_TRUE(base.ok());
    ASSERT_GT(base.sim.pduFoldedPairs, 0u);

    FaultInjector inj({});
    const LockstepReport rep =
        runWithFault(prog, FaultKind::kUnfoldPair, true, &inj, 1);
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_GT(inj.fires(), 0);
    // Un-folding moves branches back into EU slots: the pipeline
    // retires more entries for the same architectural work.
    EXPECT_LT(rep.sim.foldedBranches, base.sim.foldedBranches);
    EXPECT_GT(rep.sim.issued, base.sim.issued);
}

TEST(FaultInjection, DroppedFillsAreBenign)
{
    const Program prog = faultWorkload();
    FaultInjector inj({});
    const LockstepReport rep =
        runWithFault(prog, FaultKind::kDropFill, true, &inj, 2);
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_GT(inj.fires(), 0);
}

TEST(FaultInjection, CorruptNextPcIsDetectedByTheChecker)
{
    const Program prog = faultWorkload();
    FaultInjector inj({});
    const LockstepReport rep =
        runWithFault(prog, FaultKind::kCorruptNextPc, true, &inj, 1);
    EXPECT_GT(inj.fires(), 0);
    EXPECT_EQ(rep.kind, Divergence::kDicCorruptionDetected)
        << rep.toString();
    EXPECT_TRUE(rep.sim.dicCorruption);
    EXPECT_TRUE(rep.sim.faulted);
    EXPECT_FALSE(rep.sim.faultReason.empty());
}

TEST(FaultInjection, CorruptNextPcWithoutCheckerStillNeverWrongSilently)
{
    // Without the checker the machine may diverge — the differential
    // harness itself must catch it (this is what the checker-off run
    // demonstrates: the lockstep net below the checker).
    const Program prog = faultWorkload();
    FaultInjector inj({});
    const LockstepReport rep =
        runWithFault(prog, FaultKind::kCorruptNextPc, false, &inj, 1);
    EXPECT_GT(inj.fires(), 0);
    EXPECT_FALSE(rep.ok());
}

TEST(FaultInjection, CorruptAltPcIsDetectedByTheChecker)
{
    const Program prog = faultWorkload();
    FaultInjector inj({});
    const LockstepReport rep =
        runWithFault(prog, FaultKind::kCorruptAltPc, true, &inj, 1);
    EXPECT_GT(inj.fires(), 0);
    EXPECT_EQ(rep.kind, Divergence::kDicCorruptionDetected)
        << rep.toString();
}

TEST(FaultInjection, CorruptCcBitIsDetectedByTheChecker)
{
    const Program prog = faultWorkload();
    FaultInjector inj({});
    const LockstepReport rep =
        runWithFault(prog, FaultKind::kCorruptCcBit, true, &inj, 1);
    EXPECT_GT(inj.fires(), 0);
    EXPECT_EQ(rep.kind, Divergence::kDicCorruptionDetected)
        << rep.toString();
}

TEST(FaultInjection, BenignFaultsAcrossSeededPrograms)
{
    // The acceptance property over a window of generated programs:
    // hint faults never change architecture.
    for (std::uint64_t s = 1; s <= 30; ++s) {
        const Program prog = verify::generate(s).link();
        for (FaultKind k :
             {FaultKind::kFlipPredictBit, FaultKind::kUnfoldPair,
              FaultKind::kDropFill}) {
            FaultConfig fc;
            fc.kind = k;
            fc.seed = s;
            FaultInjector inj(fc);
            LockstepOptions opt;
            opt.cfg.checkDecode = true;
            opt.hooks = &inj;
            const LockstepReport rep =
                verify::runLockstep(prog, opt);
            EXPECT_TRUE(rep.ok())
                << "seed " << s << " fault "
                << verify::faultKindName(k) << ":\n"
                << rep.toString();
        }
    }
}

TEST(FaultInjection, KindNamesRoundTrip)
{
    for (FaultKind k : verify::kInjectableFaults) {
        const auto parsed =
            verify::parseFaultKind(verify::faultKindName(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_FALSE(verify::parseFaultKind("no-such-fault").has_value());
}

// ------------------------------------------------------------ watchdog

TEST(Watchdog, CycleLimitSetsTimedOutInsteadOfHanging)
{
    const char* src = R"(
        .entry s
s:      jmp s
    )";
    const Program p = assemble(src);
    SimConfig cfg;
    cfg.maxCycles = 500;
    CrispCpu cpu(p, cfg);
    const SimStats& s = cpu.run();
    EXPECT_FALSE(s.halted);
    EXPECT_TRUE(s.timedOut);
    EXPECT_EQ(s.cycles, 500u);
}

TEST(Watchdog, LockstepClassifiesNonHaltingPipelineAsCycleLimit)
{
    // A healthy program plus a cycle budget too small to finish it.
    const Program p = verify::generate(7).link();
    LockstepOptions opt;
    opt.cycleBudget = 3;
    const LockstepReport rep = verify::runLockstep(p, opt);
    EXPECT_EQ(rep.kind, Divergence::kCycleLimit) << rep.toString();
}

TEST(Watchdog, StepLimitVerdictNamesTheLimitOnBothRunners)
{
    // dhry is a correct program that needs about 1.2M reference steps:
    // the default limit of 1M stops the reference run, and the verdict
    // says so instead of blaming a generator.
    const Program p = cc::compile(workload("dhry").source).program;
    for (const bool fast : {false, true}) {
        const auto run = [&](const LockstepOptions& opt) {
            return fast ? verify::runFastLockstep(p, opt)
                        : verify::runLockstep(p, opt);
        };
        const LockstepReport capped = run(LockstepOptions{});
        EXPECT_EQ(capped.kind, Divergence::kReferenceStepLimit)
            << capped.toString();
        EXPECT_EQ(capped.detail, "reference interpreter did not halt "
                                 "within 1000000 steps");
        EXPECT_EQ(verify::divergenceName(capped.kind),
                  "reference-step-limit");
        EXPECT_EQ(capped.sim.apparent, 0u) << "the engine must not run";

        LockstepOptions opt;
        opt.maxSteps = 200'000'000;
        const LockstepReport full = run(opt);
        EXPECT_TRUE(full.ok()) << (fast ? "fast: " : "cycle: ")
                               << full.toString();
        EXPECT_GT(full.refInstructions, 1'000'000u);
    }
}

// --------------------------------------------------- final-state check

TEST(FinalState, MemoryMismatchNamesTheLowestDifferingAddress)
{
    const Program p = verify::generate(7).link();
    verify::Reference ref(p);
    LockstepReport rep;
    ASSERT_TRUE(verify::runReference(ref, 1'000'000, rep));
    const Interpreter& interp = ref.interp;
    rep.sim.apparent = interp.result().instructions;

    MemoryImage image = interp.memory();
    const auto check = [&] {
        LockstepReport r = rep;
        const verify::EngineState eng{"fast",       interp.accum(),
                                      interp.flag(), interp.sp(),
                                      interp.pc(),   image};
        verify::checkFinalState(ref, eng, "", r);
        return r;
    };

    const LockstepReport same = check();
    EXPECT_TRUE(same.ok()) << same.toString();
    EXPECT_EQ(same.detail, "");

    // Two differences high in memory, stored in descending order.
    for (const Addr a : {Addr{0x3E000}, Addr{0x30000}})
        image.write32(a, image.read32(a) ^ 0xA5u);
    const LockstepReport diff = check();
    EXPECT_EQ(verify::divergenceName(diff.kind), "final-state-mismatch");
    EXPECT_TRUE(diff.detail.starts_with("memory[0x30000] 0xa5 != 0x0; "))
        << diff.detail;
    EXPECT_EQ(diff.detail.find("3e000"), std::string::npos) << diff.detail;
}

// ------------------------------------------------------------ shrinker

TEST(Shrinker, NoChangeWhenPredicateAlwaysFails)
{
    // With an always-true predicate the shrinker must converge to the
    // trivially smallest program: no segments, no functions.
    const GenProgram gp = verify::generate(11);
    const auto r = verify::shrinkProgram(
        gp, [](const GenProgram&) { return true; });
    EXPECT_TRUE(r.program.segs.empty());
    EXPECT_TRUE(r.program.fns.empty());
    EXPECT_GT(r.tests, 0);
}

TEST(Shrinker, KeepsEverythingWhenNothingReproduces)
{
    const GenProgram gp = verify::generate(11);
    const auto r = verify::shrinkProgram(
        gp, [](const GenProgram&) { return false; });
    EXPECT_EQ(r.program.segs.size(), gp.segs.size());
    EXPECT_EQ(r.program.fns.size(), gp.fns.size());
}

TEST(Shrinker, MinimizesASeededArchBugToATinyReproducer)
{
    // The acceptance criterion: a deliberately injected architectural
    // bug must shrink to a reproducer of at most 20 instructions.
    SimConfig cfg; // checker off: the bug must stay silent
    const auto fails = [&cfg](const GenProgram& cand) {
        FaultConfig fc;
        fc.kind = FaultKind::kArchBug;
        fc.seed = cand.seed;
        fc.maxFires = 1;
        FaultInjector inj(fc);
        LockstepOptions opt;
        opt.cfg = cfg;
        opt.hooks = &inj;
        return !verify::runLockstep(cand.link(), opt).ok();
    };
    bool found = false;
    for (std::uint64_t s = 1; s <= 40 && !found; ++s) {
        const GenProgram gp = verify::generate(s);
        if (!fails(gp))
            continue;
        found = true;
        const auto r = verify::shrinkProgram(gp, fails);
        EXPECT_TRUE(fails(r.program));
        EXPECT_LE(r.program.instructionCount(), 20)
            << r.program.listing();
        EXPECT_LE(r.program.instructionCount(),
                  gp.instructionCount());
    }
    ASSERT_TRUE(found)
        << "no seed in [1,40] tripped the seeded arch bug";
}

} // namespace
} // namespace crisp
