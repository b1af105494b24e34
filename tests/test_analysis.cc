/**
 * @file
 * Tests for the static-analysis subsystem (src/analysis): CFG
 * construction, the reaching-compare and fold-eligibility dataflow
 * passes, the diagnostic checks, the crispcc --verify audit, and the
 * torture-side static oracle that pins the analyzer's predictions to
 * the cycle simulator's retired counts.
 */

#include <gtest/gtest.h>

#include "analysis/ccverify.hh"
#include "analysis/checks.hh"
#include "analysis/oracle.hh"
#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "isa/encoding.hh"
#include "sim/cpu.hh"
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

/** The clean shape: compare, three fillers, folded predicted branch. */
Program
cleanSpreadProgram()
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
    b.branch(Opcode::kIfTJmp, "done", /*predict_taken=*/false);
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                            Operand::imm(4)));
    b.label("done");
    b.emit(Instruction::halt());
    b.entry("main");
    return b.link();
}

TEST(Cfg, CleanSpreadProgramAnalyzesClean)
{
    const AnalysisResult r = analyzeProgram(cleanSpreadProgram(), {});
    EXPECT_FALSE(r.hasErrors()) << r.toString();
    EXPECT_FALSE(r.hasWarnings()) << r.toString();
    EXPECT_EQ(r.staticBranchSites, 1);
    EXPECT_EQ(r.staticCondSites, 1);
    EXPECT_EQ(r.staticGuaranteedCondSites, 1);
    EXPECT_EQ(r.staticFoldedSites, 1); // the 3rd filler carries it
    ASSERT_EQ(r.sites.size(), 1u);
    const BranchSite& s = r.sites.begin()->second;
    EXPECT_TRUE(s.conditional);
    EXPECT_NE(s.cls, FoldClass::kLone);
    EXPECT_TRUE(s.guaranteedResolved);
}

TEST(Cfg, DotOutputNamesBlocks)
{
    const AnalysisResult r = analyzeProgram(cleanSpreadProgram(), {});
    const std::string dot = r.cfg->toDot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Cfg, DotOutputGolden)
{
    // Byte-exact golden for a minimal program: quoted labels must
    // contain only properly backslash-escaped text (never
    // quote-to-apostrophe mangling), with one \l terminating each
    // instruction line.
    Program p;
    p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                              Operand::imm(1)));
    p.append(Instruction::branchRel(Opcode::kJmp, 2));
    p.append(Instruction::halt());
    const AnalysisResult r = analyzeProgram(p, {});
    ASSERT_FALSE(r.hasErrors()) << r.toString();
    const char* want =
        "digraph cfg {\n"
        "  node [shape=box, fontname=\"monospace\"];\n"
        "  b0 [label=\"0x1000: add Accum,1 + folded jmp -> "
        "0x1004\\l0x1004: halt -> halt\\l\"];\n"
        "}\n";
    EXPECT_EQ(r.cfg->toDot(), want);
}

TEST(Cfg, UnreachableCodeIsReported)
{
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(1));
    b.emit(Instruction::halt());
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(0),
                            Operand::imm(7))); // dead
    b.entry("main");
    const AnalysisResult r = analyzeProgram(b.link(), {});
    EXPECT_TRUE(hasRule(r, "cfg.unreachable")) << r.toString();
    EXPECT_FALSE(r.cfg->unreachableRanges().empty());
}

/** The numbers of @p nums, mapped back to addresses. */
std::vector<Addr>
addressesOf(const Cfg& cfg, std::span<const std::uint32_t> nums)
{
    std::vector<Addr> out;
    for (const std::uint32_t i : nums)
        out.push_back(cfg.addressOf(i));
    return out;
}

/** Node numbers follow nodes() in address order, and each number's
 *  successor and predecessor numbers name exactly its succs and preds. */
void
expectNumberingMirrorsNodes(const Program& prog, const std::string& name)
{
    for (FoldPolicy fp :
         {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
        const Cfg cfg(prog, fp);
        const std::string at =
            name + " fold " + std::to_string(static_cast<int>(fp));
        std::uint32_t i = 0;
        for (const auto& [pc, n] : cfg.nodes()) {
            ASSERT_EQ(cfg.numberOf(pc), i) << at << " node " << pc;
            ASSERT_EQ(cfg.addressOf(i), pc) << at << " number " << i;
            ASSERT_EQ(&cfg.nodeNumbered(i), &n) << at << " number " << i;
            EXPECT_EQ(addressesOf(cfg, cfg.succNumbers(i)), n.succs)
                << at << " node " << pc << " successors";
            EXPECT_EQ(addressesOf(cfg, cfg.predNumbers(i)), n.preds)
                << at << " node " << pc << " predecessors";
            ++i;
        }
    }
}

TEST(Cfg, NumberingMirrorsNodeMap)
{
    for (const Workload& w : allWorkloads())
        expectNumberingMirrorsNodes(cc::compile(w.source).program, w.name);
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        expectNumberingMirrorsNodes(verify::generate(seed).link(),
                                    "seed " + std::to_string(seed));
    }
}

TEST(Dataflow, AdjacentCompareBranchIsShortSpread)
{
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(1));
    b.emit(Instruction::cmp(Opcode::kCmpEq, Operand::stack(0),
                            Operand::imm(0)));
    b.branch(Opcode::kIfTJmp, "done", /*predict_taken=*/false);
    b.emit(Instruction::alu(Opcode::kAdd, Operand::stack(0),
                            Operand::imm(1)));
    b.label("done");
    b.emit(Instruction::halt());
    b.entry("main");
    const AnalysisResult r = analyzeProgram(b.link(), {});
    EXPECT_TRUE(hasRule(r, "spread.short")) << r.toString();
    ASSERT_EQ(r.sites.size(), 1u);
    // The compare itself carries the branch: folded, yet it must
    // speculate, exactly the paper's folded-compare corner.
    const BranchSite& s = r.sites.begin()->second;
    EXPECT_NE(s.cls, FoldClass::kLone);
    EXPECT_FALSE(s.guaranteedResolved);
}

TEST(Dataflow, BranchAtALoopingEntryMayTestThePowerOnFlag)
{
    // The entry is also a loop head: the first pass through the
    // branch runs before any compare, even though every node has a
    // predecessor.
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::alu(Opcode::kAdd, Operand::accum(),
                            Operand::imm(1)));
    b.branch(Opcode::kIfTJmp, "main", /*predict_taken=*/true);
    b.emit(Instruction::halt());
    b.entry("main");
    const AnalysisResult r = analyzeProgram(b.link(), {});
    EXPECT_TRUE(hasRule(r, "cc.maybe-missing-compare")) << r.toString();
}

TEST(Dataflow, ThreeParcelCallNeverFolds)
{
    // A one-parcel instruction precedes the call, but calls are three
    // parcels (absolute target + return linkage) and the PDU folds only
    // one-parcel PC-relative branches.
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(1));
    b.emit(Instruction::mov(Operand::stack(0), Operand::imm(1)));
    b.branch(Opcode::kCall, "f");
    b.emit(Instruction::halt());
    b.label("f");
    b.emit(Instruction::enter(1));
    b.emit(Instruction::ret(1));
    b.entry("main");

    const AnalysisResult r = analyzeProgram(b.link(), {});
    EXPECT_FALSE(r.hasErrors()) << r.toString();
    bool saw_call = false;
    for (const auto& [pc, s] : r.sites) {
        if (s.op != Opcode::kCall)
            continue;
        saw_call = true;
        EXPECT_EQ(s.cls, FoldClass::kLone);
        EXPECT_EQ(s.reason, NoFoldReason::kNotOneParcel);
    }
    EXPECT_TRUE(saw_call);
}

TEST(Dataflow, BranchAfterBranchHasNoCarrier)
{
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(1));
    b.branch(Opcode::kJmp, "a");
    b.label("a");
    b.branch(Opcode::kJmp, "b"); // predecessor is a branch: no carrier
    b.label("b");
    b.emit(Instruction::halt());
    b.entry("main");
    const AnalysisResult r = analyzeProgram(b.link(), {});
    ASSERT_TRUE(r.cfg != nullptr);
    bool checked = false;
    for (const auto& [pc, s] : r.sites) {
        if (pc == r.sites.begin()->first)
            continue; // the first branch may fold into the enter
        checked = true;
        EXPECT_EQ(s.cls, FoldClass::kLone) << "pc=" << pc;
        EXPECT_NE(s.reason, NoFoldReason::kNone);
    }
    EXPECT_TRUE(checked);
}

TEST(Dataflow, FoldPolicyNoneMakesEveryBranchLone)
{
    AnalysisOptions opt;
    opt.policy = FoldPolicy::kNone;
    const AnalysisResult r = analyzeProgram(cleanSpreadProgram(), opt);
    for (const auto& [pc, s] : r.sites) {
        EXPECT_EQ(s.cls, FoldClass::kLone) << "pc=" << pc;
        EXPECT_EQ(s.reason, NoFoldReason::kPolicyNone);
    }
    EXPECT_EQ(r.staticFoldedSites, 0);
}

TEST(Checks, PredictionConventionViolations)
{
    // Backward conditional branch predicted not-taken: against the
    // paper's backward-taken heuristic.
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(1));
    b.emit(Instruction::mov(Operand::stack(0), Operand::imm(2)));
    b.label("loop");
    b.emit(Instruction::alu(Opcode::kSub, Operand::stack(0),
                            Operand::imm(1)));
    b.emit(Instruction::cmp(Opcode::kCmpGt, Operand::stack(0),
                            Operand::imm(0)));
    b.branch(Opcode::kIfTJmp, "loop", /*predict_taken=*/false);
    b.emit(Instruction::halt());
    b.entry("main");
    const Program p = b.link();

    const AnalysisResult heur = analyzeProgram(p, {});
    EXPECT_TRUE(hasRule(heur, "predict.backward-not-taken"))
        << heur.toString();

    // The same program checked against no convention: silent.
    AnalysisOptions none;
    none.predict = PredictConvention::kNone;
    const AnalysisResult quiet = analyzeProgram(p, none);
    EXPECT_FALSE(hasRule(quiet, "predict.backward-not-taken"));

    // Forward branch predicted taken violates the heuristic too.
    AsmBuilder f;
    f.label("main");
    f.emit(Instruction::enter(1));
    f.emit(Instruction::cmp(Opcode::kCmpEq, Operand::stack(0),
                            Operand::imm(0)));
    f.branch(Opcode::kIfTJmp, "done", /*predict_taken=*/true);
    f.emit(Instruction::alu(Opcode::kAdd, Operand::stack(0),
                            Operand::imm(1)));
    f.label("done");
    f.emit(Instruction::halt());
    f.entry("main");
    const AnalysisResult fwd = analyzeProgram(f.link(), {});
    EXPECT_TRUE(hasRule(fwd, "predict.forward-taken")) << fwd.toString();

    // All-not-taken convention: the same set bit is also a violation.
    AnalysisOptions naive;
    naive.predict = PredictConvention::kAllNotTaken;
    const AnalysisResult nt = analyzeProgram(f.link(), naive);
    EXPECT_TRUE(hasRule(nt, "predict.forward-taken") ||
                hasRule(nt, "predict.backward-not-taken") ||
                nt.hasWarnings())
        << nt.toString();
}

TEST(Checks, StackWindowWarning)
{
    AsmBuilder b;
    b.label("main");
    b.emit(Instruction::enter(6));
    b.emit(Instruction::mov(Operand::stack(5), Operand::imm(1)));
    b.emit(Instruction::halt());
    b.entry("main");
    AnalysisOptions opt;
    opt.stackCacheWords = 2; // shrink the window below the frame
    const AnalysisResult r = analyzeProgram(b.link(), opt);
    EXPECT_TRUE(hasRule(r, "stack.outside-window")) << r.toString();
}

TEST(Checks, JumpTableProgramAnalyzesClean)
{
    // A switch compiles to an indirect jump through a link-time table;
    // the analyzer must discover the table targets from the data
    // segment rather than reporting an unresolvable indirect.
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
    EXPECT_FALSE(r.hasErrors()) << r.toString();
    EXPECT_TRUE(r.cfg->hasIndirect());
    EXPECT_FALSE(r.cfg->indirectTargets().empty());
    EXPECT_FALSE(hasRule(r, "cfg.indirect-no-table"));

    // And the oracle agrees with the pipeline about it.
    const OracleReport o = runStaticOracle(res.program, SimConfig{});
    EXPECT_TRUE(o.applicable);
    EXPECT_TRUE(o.ok()) << o.toString();
}

TEST(Oracle, TamperedTargetSetTripsInvariant8)
{
    // The value-set analysis proves the switch dispatch's target set;
    // deleting the dynamically-taken target from that proof must trip
    // the retire-time membership check (invariant 8) — the positive
    // leg of the same program is pinned by
    // Checks.JumpTableProgramAnalyzesClean. A program that stores to
    // its own table never gets here: the table becomes may-written
    // and the site falls back to unenforceable, so the corruption has
    // to be injected into the static side directly.
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
    const SimConfig cfg;
    AnalysisOptions aopt;
    aopt.policy = cfg.foldPolicy;
    aopt.predict = PredictConvention::kNone;
    aopt.foldInfo = false;
    aopt.costPredict = predictSourceFor(cfg);
    AnalysisResult st = analyzeProgram(res.program, aopt);
    ASSERT_FALSE(st.hasErrors()) << st.toString();

    SiteRecorder rec;
    CrispCpu cpu(res.program, cfg);
    const SimStats& dyn = cpu.run(&rec);
    ASSERT_FALSE(dyn.faulted);
    ASSERT_FALSE(dyn.timedOut);
    EXPECT_TRUE(crossCheck(st, dyn, rec).ok());

    // Pick a retired indirect target covered by an enforceable proof
    // and erase it from every issue point of its branch.
    bool tampered = false;
    for (const auto& [bpc, dynTargets] : rec.jumpTargets) {
        for (auto& [ip, ts] : st.targets.sites) {
            if (ts.branchPc != bpc || !ts.enforceable)
                continue;
            for (const Addr t : dynTargets)
                tampered |= ts.targets.erase(t) > 0;
        }
    }
    ASSERT_TRUE(tampered)
        << "no enforceable proof covered a retired indirect target";
    const OracleReport rep = crossCheck(st, dyn, rec);
    EXPECT_FALSE(rep.ok());
    EXPECT_FALSE(rep.targetViolations.empty()) << rep.toString();
    // The escape is a target-set verdict, not a structural mismatch:
    // the global candidate set (invariant 6) still contains it.
    EXPECT_TRUE(rep.mismatches.empty()) << rep.toString();
}

TEST(Oracle, StaticCountsMatchDynamicStatsAcross200Seeds)
{
    int applicable = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Program p = verify::generate(seed).link();
        for (FoldPolicy fp : {FoldPolicy::kNone, FoldPolicy::kCrisp,
                              FoldPolicy::kAll}) {
            SimConfig cfg;
            cfg.foldPolicy = fp;
            const OracleReport rep = runStaticOracle(p, cfg);
            if (rep.applicable)
                ++applicable;
            EXPECT_TRUE(rep.ok())
                << "seed " << seed << " fold=" << static_cast<int>(fp)
                << "\n"
                << rep.toString();
        }
    }
    // The generator emits halting programs; the sweep must really have
    // exercised the cross-check, not skipped it.
    EXPECT_EQ(applicable, 600);
}

TEST(Oracle, CatchesFoldPolicyMismatch)
{
    // Analyze under "never fold", simulate under CRISP folding: on any
    // program with at least one foldable pair the per-site fold class
    // disagrees with what retires, and the oracle must say so.
    int caught = 0;
    int total = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const Program p = verify::generate(seed).link();
        AnalysisOptions aopt;
        aopt.policy = FoldPolicy::kNone;
        aopt.predict = PredictConvention::kNone;
        aopt.foldInfo = false;
        const AnalysisResult st = analyzeProgram(p, aopt);

        SiteRecorder rec;
        CrispCpu cpu(p, SimConfig{});
        const SimStats& dyn = cpu.run(&rec);
        if (dyn.faulted || dyn.timedOut)
            continue;
        ++total;
        if (!crossCheck(st, dyn, rec).ok())
            ++caught;
    }
    EXPECT_EQ(total, 20);
    EXPECT_GE(caught, 15);
}

TEST(Verify, AllWorkloadsVerifyClean)
{
    for (const Workload& w : allWorkloads()) {
        const cc::CompileOptions opts;
        const cc::CompileResult res = cc::compile(w.source, opts);
        const VerifyReport v = verifyCompile(res, opts);
        EXPECT_TRUE(v.applicable) << w.name;
        EXPECT_TRUE(v.ok()) << w.name << "\n" << v.toString();
        EXPECT_EQ(v.claimedSpread, res.fullySpread) << w.name;
        EXPECT_EQ(v.confirmedSpread, v.claimedSpread) << w.name;
    }
}

TEST(Verify, Fig3AndOptionVariantsVerifyClean)
{
    const std::string src = fig3Source(64);
    for (const bool spread : {true, false}) {
        for (const bool naive : {true, false}) {
            cc::CompileOptions opts;
            opts.spread = spread;
            opts.predict = naive ? cc::PredictMode::kAllNotTaken
                                 : cc::PredictMode::kBackwardTaken;
            const cc::CompileResult res = cc::compile(src, opts);
            const VerifyReport v = verifyCompile(res, opts);
            EXPECT_TRUE(v.ok())
                << "spread=" << spread << " naive=" << naive << "\n"
                << v.toString();
            if (!spread) {
                EXPECT_EQ(v.claimedSpread, 0);
            }
        }
    }
}

TEST(Verify, DelaySlotBuildsAreNotApplicable)
{
    cc::CompileOptions opts;
    opts.delaySlots = true;
    const cc::CompileResult res = cc::compile(fig3Source(16), opts);
    const VerifyReport v = verifyCompile(res, opts);
    EXPECT_FALSE(v.applicable);
    EXPECT_TRUE(v.ok());
}

TEST(Verify, CatchesTamperedPredictionBit)
{
    const cc::CompileOptions opts;
    cc::CompileResult res = cc::compile(fig3Source(64), opts);

    // Baseline must be clean, then flip one reachable conditional
    // branch's prediction bit in the linked binary.
    ASSERT_TRUE(verifyCompile(res, opts).ok());
    const AnalysisResult base = analyzeProgram(res.program, {});
    Addr victim = 0;
    for (const auto& [pc, s] : base.sites) {
        if (s.conditional && s.shortForm) {
            victim = pc;
            break;
        }
    }
    ASSERT_NE(victim, 0u);

    Instruction inst = res.program.fetch(victim);
    inst.predictTaken = !inst.predictTaken;
    Parcel buf[kMaxParcels];
    ASSERT_EQ(encode(inst, buf), 1);
    res.program.text[(victim - res.program.textBase) / kParcelBytes] =
        buf[0];

    const VerifyReport v = verifyCompile(res, opts);
    EXPECT_FALSE(v.ok());
}

TEST(Verify, CatchesBogusSpreadClaim)
{
    const cc::CompileOptions opts;
    const char* src =
        "int main() { int i; int s; s = 0; "
        "for (i = 1; i <= 100; i = i + 1) { s = s + i; } return s; }";
    cc::CompileResult res = cc::compile(src, opts);
    ASSERT_TRUE(verifyCompile(res, opts).ok());

    // Claim full spread on a conditional branch passSpread did not
    // claim (the loop's compare feeds its branch directly).
    bool tampered = false;
    for (cc::CodeItem& c : res.code) {
        if (c.kind == cc::CodeItem::Kind::kBranch && !c.spreadClaim &&
            isBranch(c.inst.op) && c.inst.op != Opcode::kJmp &&
            c.inst.op != Opcode::kCall) {
            c.spreadClaim = true;
            tampered = true;
            break;
        }
    }
    ASSERT_TRUE(tampered);
    const VerifyReport v = verifyCompile(res, opts);
    EXPECT_FALSE(v.ok());
}

TEST(Json, ReportIsMachineReadable)
{
    const AnalysisResult r = analyzeProgram(cleanSpreadProgram(), {});
    const std::string j = r.toJson();
    EXPECT_NE(j.find("\"staticBranchSites\""), std::string::npos);
    EXPECT_NE(j.find("\"sites\""), std::string::npos);
    EXPECT_NE(j.find("\"diagnostics\""), std::string::npos);
}

} // namespace
