/**
 * @file
 * Tests for the analysis session (src/analysis/session.hh): each
 * product asked alone of a fresh session equals the same field of
 * analyzeProgram, which asks for every product, and analyzeProgram
 * equals the analyses called one by one in dependency order.
 */

#include <gtest/gtest.h>

#include "analysis/session.hh"
#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "verify/generator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace crisp;
using namespace crisp::analysis;

bool
sameRun(const FixpointRun& a, const FixpointRun& b)
{
    return a.steps == b.steps && a.widenings == b.widenings &&
           a.converged == b.converged;
}

/** @p c without the target-set metadata analyzeProgram annotates. */
CostSummary
boundsOnly(CostSummary c)
{
    for (auto& [pc, s] : c.sites) {
        s.targetResolved = false;
        s.targetCount = 0;
        s.targetSingleton = false;
    }
    return c;
}

/**
 * The products computed by calling each analysis in dependency order:
 * the definition analyzeProgram's result must keep.
 */
AnalysisResult
stepByStep(const Program& prog, const AnalysisOptions& opt)
{
    AnalysisResult r;
    r.cfg = std::make_shared<Cfg>(prog, opt.policy);
    r.spread = analyzeSpread(*r.cfg);
    r.sites = collectBranchSites(*r.cfg, r.spread);
    r.absint = interpret(*r.cfg);
    r.sccp = sccp(*r.cfg);
    r.live = computeLiveness(*r.cfg, r.sccp.state);
    r.reachdefs = computeReachDefs(*r.cfg, r.sccp.state);
    r.callgraph = std::make_shared<CallGraph>(*r.cfg);
    r.targets = analyzeTargets(*r.cfg, *r.callgraph, r.sccp);
    r.cost = computeCost(*r.cfg, r.spread, r.sites, r.sccp.state,
                         opt.costPredict, &r.targets);
    return r;
}

/** Each product asked alone of a fresh session. */
AnalysisResult
eachAlone(const Program& prog, const AnalysisOptions& opt)
{
    const auto fresh = [&] { return AnalysisSession(prog, opt); };
    AnalysisResult r;
    r.cfg = fresh().sharedCfg();
    r.spread = fresh().spread();
    r.sites = fresh().sites();
    r.absint = fresh().absint();
    r.sccp = fresh().sccp();
    r.live = fresh().liveness();
    r.reachdefs = fresh().reachdefs();
    r.callgraph = std::make_shared<CallGraph>(fresh().callgraph());
    r.targets = fresh().targets();
    r.cost = fresh().cost();
    r.diags = fresh().diagnostics();
    return r;
}

/** States, work, executable set, proven directions, dead defs,
 *  def-use chains, call graph and target sites agree. */
void
expectSameFixpoints(const AnalysisResult& a, const AnalysisResult& b,
                    const std::string& at)
{
    EXPECT_EQ(a.cfg->toDot(), b.cfg->toDot()) << at;
    EXPECT_TRUE(a.spread == b.spread) << at << ": spread";
    EXPECT_TRUE(a.sites == b.sites) << at << ": sites";
    EXPECT_TRUE(a.absint.in == b.absint.in &&
                a.absint.out == b.absint.out &&
                sameRun(a.absint, b.absint))
        << at << ": absint";
    EXPECT_TRUE(a.sccp.state.in == b.sccp.state.in &&
                a.sccp.state.out == b.sccp.state.out &&
                sameRun(a.sccp.state, b.sccp.state))
        << at << ": SCCP states";
    EXPECT_EQ(a.sccp.executable, b.sccp.executable) << at;
    EXPECT_EQ(a.sccp.provenDirection, b.sccp.provenDirection) << at;
    EXPECT_TRUE(a.live.in == b.live.in && a.live.out == b.live.out &&
                sameRun(a.live, b.live))
        << at << ": liveness states";
    EXPECT_TRUE(a.live.dead == b.live.dead) << at << ": dead defs";
    EXPECT_TRUE(a.reachdefs.in == b.reachdefs.in &&
                sameRun(a.reachdefs, b.reachdefs))
        << at << ": reaching-definition states";
    EXPECT_EQ(a.reachdefs.defUses, b.reachdefs.defUses) << at;
    const CallGraph& ca = *a.callgraph;
    const CallGraph& cb = *b.callgraph;
    EXPECT_TRUE(ca.sites() == cb.sites() &&
                ca.functions() == cb.functions() &&
                ca.owner() == cb.owner() &&
                ca.allReturnSites() == cb.allReturnSites())
        << at << ": call graph";
    EXPECT_TRUE(a.targets.sites == b.targets.sites) << at << ": targets";
    EXPECT_TRUE(a.targets.allMutable == b.targets.allMutable &&
                a.targets.mayWrite == b.targets.mayWrite &&
                sameRun(a.targets, b.targets))
        << at << ": value-set fixpoint";
}

void
expectProductsMatch(const Program& prog, const AnalysisOptions& opt,
                    const std::string& at)
{
    const AnalysisResult whole = analyzeProgram(prog, opt);

    const AnalysisResult ref = stepByStep(prog, opt);
    expectSameFixpoints(whole, ref, at + " (step by step)");
    EXPECT_TRUE(whole.cost == ref.cost) << at << ": cost";

    const AnalysisResult alone = eachAlone(prog, opt);
    expectSameFixpoints(alone, whole, at + " (each alone)");
    EXPECT_TRUE(alone.cost == boundsOnly(whole.cost))
        << at << ": cost bounds";
    EXPECT_TRUE(alone.diags == whole.diags) << at << ": diagnostics";
    std::vector<Diagnostic> errors;
    for (const Diagnostic& d : whole.diags) {
        if (d.severity == Severity::kError)
            errors.push_back(d);
    }
    EXPECT_TRUE(AnalysisSession(prog, opt).errors() == errors)
        << at << ": errors";
}

/** Two error diagnostics (a negative stack slot, an indirect jump
 *  with no jump table) and a resolved indirect site. */
constexpr const char* kFaulty = R"(
    .entry main
    .global fp 0
main:
    enter 2
    mov sp[-1], 3
    mov fp, sp[0]
    jmp *fp
    halt
)";

/** A bounded jump-table dispatch inside a loop, and a dispatch through
 *  a word the lattice cannot bound. */
constexpr const char* kSwitch = R"(
    .entry main
    .global fp 0
    .table tab arm0 arm1 arm2
    .clearlocals
    .local i 0
main:
    enter 4
    mov i, 0
loop:
    mov sp[3], i
    cmp.u>= sp[3], 3
    iftjmpn done
    shl sp[3], 2
    add sp[3], 32772
    mov sp[2], [sp[3]]
    jmp *sp[2]
arm0:
    add i, 1
    jmp loop
arm1:
    add i, 2
    jmp loop
arm2:
    mov fp, i
    jmp *fp
done:
    mov Accum, i
    halt
)";

TEST(Session, ProductsMatchAnalyzeProgram)
{
    const Program faulty = assemble(kFaulty);
    ASSERT_EQ(AnalysisSession(faulty).errors().size(), 2u);
    expectProductsMatch(faulty, {}, "faulty");
    const Program sw = assemble(kSwitch);
    ASSERT_EQ(AnalysisSession(sw).targets().resolvedCount(), 1u);
    expectProductsMatch(sw, {}, "switch");
    for (const Workload& w : allWorkloads()) {
        const Program prog = cc::compile(w.source).program;
        for (const FoldPolicy fp :
             {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
            AnalysisOptions opt;
            opt.policy = fp;
            expectProductsMatch(prog, opt,
                                w.name + " policy " +
                                    std::to_string(static_cast<int>(fp)));
        }
    }
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        AnalysisOptions opt;
        opt.predict = PredictConvention::kNone;
        expectProductsMatch(verify::generate(seed).link(), opt,
                            "seed " + std::to_string(seed));
    }
}

} // namespace
