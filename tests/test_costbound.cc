/**
 * @file
 * Tests for the abstract-interpretation branch-cost engine
 * (src/analysis/absint + cost): constant-branch proofs and their
 * diagnostics, the per-site delay bounds and their corner cases
 * (indirect jumps, loop-head widening, CC definedness across calls),
 * the SARIF serializer, the crossCheck cost oracle (invariant 7) with
 * tamper detection, and the dynamic sweeps that pin the bounds under
 * every predictor configuration.
 */

#include <gtest/gtest.h>

#include "analysis/ccverify.hh"
#include "analysis/checks.hh"
#include "analysis/oracle.hh"
#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "sim/cpu.hh"
#include "util/json.hh"
#include "verify/generator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace crisp;
using namespace crisp::analysis;

bool
hasRule(const AnalysisResult& r, const std::string& rule)
{
    for (const Diagnostic& d : r.diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

/** Constant compare (s0 is provably 3), fully spread, branch taken. */
Program
constantBranchProgram(bool predict_taken)
{
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(2));
    b.emit(Instruction::mov(Operand::stack(0), Operand::imm(3)));
    b.emit(Instruction::cmp(Opcode::kCmpEq, Operand::stack(0),
                            Operand::imm(3)));
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(1)));
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(2)));
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(3)));
    b.branch(Opcode::kIfTJmp, "done", predict_taken);
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(4)));
    b.label("done");
    b.emit(Instruction::halt());
    b.entry("main");
    return b.link();
}

const SiteCost&
onlyCondSite(const AnalysisResult& r)
{
    for (const auto& [pc, c] : r.cost.sites) {
        if (c.conditional)
            return c;
    }
    throw CrispError("no conditional cost site");
}

TEST(CostBound, ConstantSpreadBranchIsProvablyFree)
{
    const AnalysisResult r =
        analyzeProgram(constantBranchProgram(true), {});
    const SiteCost& c = onlyCondSite(r);
    EXPECT_TRUE(c.constantDirection);
    EXPECT_TRUE(c.alwaysTaken);
    EXPECT_EQ(c.bound.lo, 0);
    EXPECT_EQ(c.bound.hi, 0);
    EXPECT_GE(c.minSpreadSlots, 3);
    EXPECT_TRUE(hasRule(r, "cost.constant-cc")) << r.toString();
    EXPECT_TRUE(r.absint.converged);
    // The not-taken fall-through path dies once the branch is pruned.
    EXPECT_TRUE(hasRule(r, "cost.dead-branch")) << r.toString();
}

TEST(CostBound, ConstantUnspreadBranchRefinesOnCorrectPrediction)
{
    // Adjacent compare/branch (no spread), condition provably true.
    // With the prediction bit agreeing, the static-bit machine never
    // mispredicts, so the bound still collapses; with the bit fighting
    // the constant it stays at the speculation worst case.
    auto build = [](bool predict_taken) {
        AsmBuilder b;
        b.label("main");
        b.emit(Instruction::enter(2));
        b.emit(Instruction::mov(Operand::stack(0), Operand::imm(3)));
        b.emit(Instruction::cmp(Opcode::kCmpEq, Operand::stack(0),
                                Operand::imm(3)));
        b.branch(Opcode::kIfTJmp, "done", predict_taken);
        b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                                Operand::imm(4)));
        b.label("done");
        b.emit(Instruction::halt());
        b.entry("main");
        return b.link();
    };

    const AnalysisResult agree = analyzeProgram(build(true), {});
    const SiteCost& ca = onlyCondSite(agree);
    EXPECT_TRUE(ca.constantDirection);
    EXPECT_TRUE(ca.predictionProvablyCorrect);
    EXPECT_EQ(ca.bound.hi, 0);

    const AnalysisResult fight = analyzeProgram(build(false), {});
    const SiteCost& cf = onlyCondSite(fight);
    EXPECT_TRUE(cf.constantDirection);
    EXPECT_FALSE(cf.predictionProvablyCorrect);
    EXPECT_GT(cf.bound.hi, 0);

    // And the machine agrees with both verdicts.
    for (const Program& p : {build(true), build(false)}) {
        const OracleReport o = runStaticOracle(p, SimConfig{});
        EXPECT_TRUE(o.applicable);
        EXPECT_TRUE(o.ok()) << o.toString();
    }
}

TEST(CostBound, IndirectJumpCostsExactlyTwoCycles)
{
    const char* src = R"(
        int main() {
            int i; int s;
            s = 0;
            for (i = 0; i < 12; i = i + 1) {
                switch (i - (i / 4) * 4) {
                    case 0: s = s + 1; break;
                    case 1: s = s + 2; break;
                    case 2: s = s + 3; break;
                    default: s = s + 5; break;
                }
            }
            return s;
        }
    )";
    const cc::CompileResult res = cc::compile(src, {});
    const AnalysisResult r = analyzeProgram(res.program, {});
    int indirect = 0;
    for (const auto& [pc, c] : r.cost.sites) {
        if (!c.indirect)
            continue;
        ++indirect;
        EXPECT_EQ(c.bound.lo, 2);
        EXPECT_EQ(c.bound.hi, 2);
    }
    EXPECT_GE(indirect, 1);

    const OracleReport o = runStaticOracle(res.program, SimConfig{});
    EXPECT_TRUE(o.applicable);
    EXPECT_TRUE(o.ok()) << o.toString();
}

TEST(CostBound, LoopHeadWideningTerminatesWithoutFalseConstancy)
{
    // The induction variable joins a new value every iteration; the
    // interval must widen (not iterate 100 times), converge, and the
    // loop compare must not be proven constant in either direction.
    const char* src =
        "int main() { int i; int s; s = 0; "
        "for (i = 0; i < 100; i = i + 1) { s = s + i; } return s; }";
    const cc::CompileResult res = cc::compile(src, {});
    const AnalysisResult r = analyzeProgram(res.program, {});
    EXPECT_TRUE(r.absint.converged);
    EXPECT_GT(r.absint.widenings, 0);
    for (const auto& [pc, c] : r.cost.sites) {
        if (c.conditional) {
            EXPECT_FALSE(c.constantDirection)
                << "pc 0x" << std::hex << pc;
        }
    }
    const OracleReport o = runStaticOracle(res.program, SimConfig{});
    EXPECT_TRUE(o.applicable);
    EXPECT_TRUE(o.ok()) << o.toString();
}

TEST(CostBound, CallHavocsConditionFlagDefinedness)
{
    // The compare is provably true before the call, but the callee may
    // leave anything in the flag, so the branch after the return must
    // not be proven constant.
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(2));
    b.emit(Instruction::mov(Operand::stack(0), Operand::imm(3)));
    b.emit(Instruction::cmp(Opcode::kCmpEq, Operand::stack(0),
                            Operand::imm(3)));
    b.branch(Opcode::kCall, "f");
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(1)));
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(2)));
    b.branch(Opcode::kIfTJmp, "done", /*predict_taken=*/true);
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(4)));
    b.label("done");
    b.emit(Instruction::halt());
    b.label("f");
    b.emit(Instruction::ret(0));
    b.entry("main");
    const Program p = b.link();

    AnalysisOptions opt;
    opt.predict = PredictConvention::kNone;
    const AnalysisResult r = analyzeProgram(p, opt);
    const SiteCost& c = onlyCondSite(r);
    EXPECT_FALSE(c.constantDirection);
    EXPECT_FALSE(hasRule(r, "cost.constant-cc")) << r.toString();
}

TEST(CostBound, CostTableTextListsEverySite)
{
    const AnalysisResult r =
        analyzeProgram(constantBranchProgram(true), {});
    const std::string t = r.costTableText();
    EXPECT_NE(t.find("static per-site delay bounds"), std::string::npos);
    EXPECT_NE(t.find("free"), std::string::npos);
    EXPECT_NE(t.find("always-taken"), std::string::npos);
}

TEST(Sarif, WarningAndNoteLevelsRoundTrip)
{
    // Adjacent compare/branch trips spread.short (warning); the
    // constant compare feeding it is a cost note. Both must appear
    // with SARIF levels and the input URI.
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(2));
    b.emit(Instruction::mov(Operand::stack(0), Operand::imm(3)));
    b.emit(Instruction::cmp(Opcode::kCmpEq, Operand::stack(0),
                            Operand::imm(3)));
    b.branch(Opcode::kIfTJmp, "done", /*predict_taken=*/true);
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(4)));
    b.label("done");
    b.emit(Instruction::halt());
    b.entry("main");

    AnalysisOptions opt;
    opt.predict = PredictConvention::kNone;
    const AnalysisResult r = analyzeProgram(b.link(), opt);
    ASSERT_TRUE(hasRule(r, "spread.short"));
    ASSERT_TRUE(hasRule(r, "cost.constant-cc"));

    const std::string s = r.toSarif("prog.s");
    EXPECT_NE(s.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("\"name\":\"crisplint\""), std::string::npos);
    EXPECT_NE(s.find("\"ruleId\":\"spread.short\""), std::string::npos);
    EXPECT_NE(s.find("\"level\":\"warning\""), std::string::npos);
    EXPECT_NE(s.find("\"level\":\"note\""), std::string::npos);
    EXPECT_NE(s.find("\"uri\":\"prog.s\""), std::string::npos);
    EXPECT_NE(s.find("byteOffset"), std::string::npos);
    // Every fired rule is declared exactly once in the driver.
    EXPECT_NE(s.find("{\"id\":\"spread.short\"}"), std::string::npos);
}

TEST(Sarif, ControlCharactersInArtifactUriAreEscaped)
{
    // A file name may hold any byte but NUL; the log must still parse
    // as JSON, with every control character escaped.
    const AnalysisResult r =
        analyzeProgram(constantBranchProgram(true), {});
    const std::string s = r.toSarif("tab\tname\x01.s");
    EXPECT_TRUE(util::jsonValid(s)) << s;
    EXPECT_NE(s.find("\"uri\":\"tab\\tname\\u0001.s\""),
              std::string::npos)
        << s;
}

TEST(CostOracle, TamperedBoundIsCaughtAsCostViolation)
{
    const cc::CompileResult res = cc::compile(fig3Source(64), {});
    const SimConfig cfg;

    AnalysisOptions opt;
    opt.predict = PredictConvention::kNone;
    opt.foldInfo = false;
    opt.costPredict = predictSourceFor(cfg);
    AnalysisResult st = analyzeProgram(res.program, opt);

    SiteRecorder rec;
    CrispCpu cpu(res.program, cfg);
    const SimStats& dyn = cpu.run(&rec);
    ASSERT_FALSE(dyn.faulted);
    ASSERT_TRUE(crossCheck(st, dyn, rec).ok());

    // Raise one executed site's lower bound above what the machine
    // actually spent there: crossCheck must flag it as a cost
    // violation (and only as a cost violation).
    Addr victim = 0;
    for (const auto& [pc, c] : rec.sites) {
        if (c.total > 0 && st.cost.sites.count(pc) != 0) {
            victim = pc;
            break;
        }
    }
    ASSERT_NE(victim, 0u);
    const int observed_min = rec.sites.at(victim).delayMin;
    st.cost.sites.at(victim).bound.lo = observed_min + 1;
    st.cost.sites.at(victim).bound.hi = 4;

    const OracleReport rep = crossCheck(st, dyn, rec);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.mismatches.empty()) << rep.toString();
    EXPECT_FALSE(rep.costViolations.empty());
}

TEST(CostOracle, BoundsHoldUnderEveryPredictorConfiguration)
{
    // The refinement path differs per predictor source: static-bit
    // machines honor the compiler's bit, respectPredictionBit=false
    // machines always predict not-taken, and the dynamic predictors
    // disable the constant-branch refinement entirely (kUnknown).
    // All three must stay inside their bounds across random programs.
    std::vector<SimConfig> cfgs;
    {
        SimConfig c;
        c.respectPredictionBit = false;
        cfgs.push_back(c);
        c = SimConfig{};
        c.predictor = PredictorKind::kDynamic1;
        cfgs.push_back(c);
        c = SimConfig{};
        c.predictor = PredictorKind::kDynamic2;
        c.predictorEntries = 16;
        cfgs.push_back(c);
    }
    int applicable = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const Program p = verify::generate(seed).link();
        for (const SimConfig& cfg : cfgs) {
            const OracleReport rep = runStaticOracle(p, cfg);
            if (rep.applicable)
                ++applicable;
            EXPECT_TRUE(rep.ok()) << "seed " << seed << "\n"
                                  << rep.toString();
        }
    }
    EXPECT_EQ(applicable, 180);
}

TEST(CostVerify, SpreadClaimsAreProvablyFreeAcrossWorkloads)
{
    for (const Workload& w : allWorkloads()) {
        const cc::CompileOptions opts;
        const cc::CompileResult res = cc::compile(w.source, opts);
        const VerifyReport v = verifyCompile(res, opts);
        EXPECT_TRUE(v.ok()) << w.name << "\n" << v.toString();
        // The cost engine must independently prove every confirmed
        // spread claim free of delay.
        EXPECT_EQ(v.costZeroBound, v.confirmedSpread) << w.name;
    }
}

} // namespace
