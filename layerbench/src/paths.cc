#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>

#include "analysis/opt.hh"
#include "analysis/oracle.hh"
#include "analysis/tv.hh"
#include "bench.hh"
#include "bench/common.hh"
#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "isa/objfile.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"
#include "sim/predecode.hh"
#include "sim/translate.hh"
#include "verify/enginediff.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"
#include "workloads/workloads.hh"

namespace layerbench
{

using namespace crisp;

namespace
{

/** Lockstep step cap: well above the longest corpus program. */
constexpr std::uint64_t kMaxSteps = 100'000'000;

bool
fail(std::string* why, const std::string& msg)
{
    if (why != nullptr)
        *why = msg;
    return false;
}

bool
ranToHalt(const SimStats& s, std::string* why)
{
    if (s.faulted)
        return fail(why, "machine fault: " + s.faultReason);
    if (!s.halted)
        return fail(why, "did not halt");
    return true;
}

template <class Engine>
bool
goldenOk(const Engine& e, const Golden& g, std::string* why)
{
    for (const auto& [name, want] : g.globals) {
        const Word got = e.wordAt(name);
        if (got != want) {
            return fail(why, name + " = " + std::to_string(got) +
                                 ", expected " + std::to_string(want));
        }
    }
    if (g.checkAccum && e.accum() != g.accum) {
        return fail(why, "exit value " + std::to_string(e.accum()) +
                             ", expected " + std::to_string(g.accum));
    }
    return true;
}

void
add(Counts* c, const char* name, double v)
{
    if (c != nullptr)
        (*c)[name] += v;
}

/** The default configuration, bounded by the subject's budget. */
SimConfig
budgeted(const Subject& s)
{
    SimConfig cfg;
    cfg.maxCycles = s.budget;
    return cfg;
}

bool
cyclePath(const Subject& s, Recorder& tr, Counts* c, std::string* why)
{
    const Program prog = programOf(s, tr);
    std::optional<CrispCpu> cpu;
    {
        Span sp(tr, "sim.cycle_construct");
        cpu.emplace(prog, budgeted(s));
    }
    const SimStats* st = nullptr;
    {
        Span sp(tr, "sim.cycle_run");
        st = &cpu->run();
    }
    if (!ranToHalt(*st, why) || !goldenOk(*cpu, s.golden, why))
        return false;
    add(c, "sim_cycles", static_cast<double>(st->cycles));
    add(c, "cc.text_bytes",
        static_cast<double>(prog.text.size() * kParcelBytes));
    add(c, "sim.instructions", static_cast<double>(st->apparent));
    add(c, "sim.issued", static_cast<double>(st->issued));
    add(c, "sim.folded_branches", static_cast<double>(st->foldedBranches));
    add(c, "sim.mispredicts", static_cast<double>(st->mispredicts));
    add(c, "sim.branch_delay_cycles",
        static_cast<double>(st->branchDelayCycles));
    add(c, "sim.issue_stall_cycles",
        static_cast<double>(st->issueStallCycles));
    add(c, "sim.dic_hits", static_cast<double>(st->dicHits));
    add(c, "sim.dic_misses", static_cast<double>(st->dicMisses));
    return true;
}

bool
fastPath(const Subject& s, Recorder& tr, Counts* c, std::string* why)
{
    const Program prog = programOf(s, tr);
    // Exactly crisprun --engine=fast: hints from the value-set analysis
    // only when the analysis reports no errors.
    analysis::AnalysisOptions aopt;
    aopt.predict = analysis::PredictConvention::kNone;
    aopt.foldInfo = false;
    analysis::AnalysisResult ar;
    {
        Span sp(tr, "analysis.analyze");
        ar = analysis::analyzeProgram(prog, aopt);
    }
    IndirectHints hints;
    {
        Span sp(tr, "analysis.hint");
        if (!ar.hasErrors())
            hints = analysis::hintsFromTargets(ar.targets);
    }
    std::optional<FastEngine> eng;
    {
        Span sp(tr, "sim.fast_construct");
        eng.emplace(prog, budgeted(s), nullptr, nullptr, &hints);
    }
    const SimStats* st = nullptr;
    {
        Span sp(tr, "sim.fast_run");
        st = &eng->run();
    }
    if (!ranToHalt(*st, why) || !goldenOk(*eng, s.golden, why))
        return false;
    add(c, "fast.instructions", static_cast<double>(st->apparent));
    add(c, "fast.ic_hits", static_cast<double>(eng->icHits()));
    add(c, "fast.ic_misses", static_cast<double>(eng->icMisses()));
    return true;
}

bool
lintPath(const Subject& s, const Inputs& in, Recorder& tr, std::string* why)
{
    Program prog;
    {
        Span sp(tr, "isa.load");
        prog = loadObject(s.image);
    }
    analysis::AnalysisOptions opt;
    opt.predict = in.lintPredict;
    analysis::AnalysisResult ar;
    {
        Span sp(tr, "analysis.analyze");
        ar = analysis::analyzeProgram(prog, opt);
    }
    std::string json;
    {
        Span sp(tr, "analysis.report");
        json = ar.toJson();
    }
    if (ar.hasErrors())
        return fail(why, "analysis reported errors");
    if (fnv1a(json) != s.lintHash)
        return fail(why, "lint report differs from the reference");
    return true;
}

bool
optPath(const Subject& s, Recorder& tr, Counts* c, std::string* why)
{
    const cc::CompileOptions copts;
    cc::CompileResult base;
    {
        Span sp(tr, "cc.compile");
        base = cc::compile(s.source, copts);
    }
    analysis::OptReport orep;
    {
        Span sp(tr, "analysis.opt");
        orep = analysis::optimize(base, copts);
    }
    if (!orep.tv.ok)
        return fail(why, "translation validation rejected the shipped "
                         "binary");
    // Golden run of the shipped binary (architectural results only).
    std::optional<FastEngine> eng;
    {
        Span sp(tr, "sim.fast_construct");
        eng.emplace(orep.result.program, budgeted(s));
    }
    {
        Span sp(tr, "sim.fast_run");
        if (!ranToHalt(eng->run(), why))
            return false;
    }
    if (!goldenOk(*eng, s.golden, why))
        return false;
    if (c != nullptr) {
        add(c, "analysis.opt_rounds", orep.stats.rounds);
        add(c, "analysis.opt_instr_removed",
            static_cast<double>(orep.stats.instrBefore) -
                static_cast<double>(orep.stats.instrAfter));
        add(c, "analysis.tv_fallbacks", orep.tvFallback ? 1 : 0);
        CrispCpu cpu(orep.result.program, budgeted(s));
        const SimStats& st = cpu.run();
        if (!ranToHalt(st, why) || !goldenOk(cpu, s.golden, why))
            return false;
        add(c, "opt_sim_cycles", static_cast<double>(st.cycles));
    }
    return true;
}

bool
checkPath(const Subject& s, Recorder& tr, std::string* why)
{
    const Program prog = programOf(s, tr);
    int divergences = 0;
    const auto leg = [&](const verify::LockstepReport& rep,
                         const char* what) {
        if (!rep.ok()) {
            ++divergences;
            fail(why, std::string(what) + ": " + rep.toString());
        } else if (rep.refInstructions != s.refInstructions) {
            ++divergences;
            fail(why, std::string(what) + ": reference ran " +
                          std::to_string(rep.refInstructions) +
                          " instructions, expected " +
                          std::to_string(s.refInstructions));
        }
    };
    for (const FoldPolicy fp :
         {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
        verify::LockstepOptions lo;
        lo.cfg = budgeted(s);
        lo.cfg.foldPolicy = fp;
        lo.maxSteps = kMaxSteps;
        verify::LockstepReport rep;
        {
            Span sp(tr, "verify.lockstep");
            rep = verify::runLockstep(prog, lo);
        }
        leg(rep, "lockstep");
        analysis::OracleReport orc;
        {
            Span sp(tr, "verify.oracle");
            orc = analysis::runStaticOracle(prog, lo.cfg);
        }
        if (!orc.ok()) {
            ++divergences;
            fail(why, "static oracle: " + orc.toString());
        }
    }
    verify::LockstepOptions lo;
    lo.maxSteps = kMaxSteps;
    verify::LockstepReport rep;
    {
        Span sp(tr, "verify.enginediff");
        rep = verify::runFastLockstep(prog, lo);
    }
    leg(rep, "fast lockstep");
    return divergences == 0;
}

} // namespace

const char*
pathName(PathKind p)
{
    static const char* kNames[kPathCount] = {"cycle", "fast", "lint", "opt",
                                             "check"};
    return kNames[static_cast<int>(p)];
}

Program
programOf(const Subject& s, Recorder& tr)
{
    if (s.generated()) {
        Span sp(tr, "verify.generate");
        return verify::generate(s.genSeed).link();
    }
    Span sp(tr, "cc.compile");
    return cc::compile(s.source).program;
}

bool
runPath(PathKind p, const Subject& s, const Inputs& in, Recorder& tr,
        Counts* counts, std::string* why)
{
    try {
        switch (p) {
          case PathKind::kCycle:
            return cyclePath(s, tr, counts, why);
          case PathKind::kFast:
            return fastPath(s, tr, counts, why);
          case PathKind::kLint:
            return lintPath(s, in, tr, why);
          case PathKind::kOpt:
            return optPath(s, tr, counts, why);
          case PathKind::kCheck:
            return checkPath(s, tr, why);
        }
    } catch (const std::exception& e) {
        return fail(why, std::string("exception: ") + e.what());
    }
    return fail(why, "unknown path");
}

analysis::AnalysisResult
analyzeSteps(const Program& prog, Recorder& tr)
{
    using namespace crisp::analysis;
    const AnalysisOptions opt;
    AnalysisResult r;
    {
        Span sp(tr, "analysis.cfg");
        r.cfg = std::make_shared<Cfg>(prog, opt.policy);
    }
    {
        Span sp(tr, "analysis.spread");
        r.spread = analyzeSpread(*r.cfg);
        r.sites = collectBranchSites(*r.cfg, r.spread);
    }
    {
        Span sp(tr, "analysis.absint");
        r.absint = interpret(*r.cfg);
    }
    {
        Span sp(tr, "analysis.sccp");
        r.sccp = sccp(*r.cfg);
    }
    {
        Span sp(tr, "analysis.liveness");
        r.live = computeLiveness(*r.cfg, r.sccp.state);
    }
    {
        Span sp(tr, "analysis.reachdefs");
        r.reachdefs = computeReachDefs(*r.cfg, r.sccp.state);
    }
    {
        Span sp(tr, "analysis.callgraph");
        r.callgraph = std::make_shared<CallGraph>(*r.cfg);
    }
    {
        Span sp(tr, "analysis.targets");
        r.targets = analyzeTargets(*r.cfg, *r.callgraph, r.sccp);
    }
    {
        Span sp(tr, "analysis.cost");
        r.cost = computeCost(*r.cfg, r.spread, r.sites, r.sccp.state,
                             opt.costPredict, &r.targets);
    }
    {
        // The analyses the rule checks run. Formatting the diagnostics,
        // which has internal linkage in checks.cc, is left out.
        Span sp(tr, "analysis.checks");
        analyzeStackWindow(*r.cfg, opt.stackCacheWords);
        deadAfterConstantPruning(*r.cfg, r.sccp.state);
        findRedundantCopies(*r.cfg, r.reachdefs, r.sccp.state);
    }
    return r;
}

void
runProbes(const Subject& s, const Subject* opt, Recorder& tr)
{
    const Program prog = programOf(s, tr);
    analyzeSteps(prog, tr);
    {
        PredecodeCache tables(prog);
        {
            Span sp(tr, "sim.predecode");
            tables.warmAll(FoldPolicy::kCrisp);
        }
        Span sp(tr, "sim.translate");
        const Translation t(prog, FoldPolicy::kCrisp, &tables);
    }
    {
        Span sp(tr, "interp.run");
        Interpreter interp(prog);
        interp.run();
    }
    if (!s.generated()) {
        // No corpus path generates programs; time the generator alone.
        Span sp(tr, "verify.generate");
        verify::generate(s.genSeed).link();
    }
    if (opt != nullptr) {
        // The validator alone on (baseline, shipped). optimize() runs
        // it with matched site pairs; without them it does the same
        // analyses and concrete equivalence run.
        const cc::CompileResult base = cc::compile(opt->source);
        const analysis::OptReport orep = analysis::optimize(base, {});
        Span sp(tr, "analysis.tv");
        analysis::validateRewrite(base.program, orep.result.program, {});
    }
}

double
table4ErrorPct()
{
    // The paper's Table 4 cycle counts for cases A-E, in the order of
    // bench::kTable4Cases (bench/table4_execution.cc prints the same).
    static const double kPaperCycles[] = {14422, 11359, 8789, 7250, 9815};
    static_assert(std::size(kPaperCycles) == std::size(bench::kTable4Cases));
    const std::string src = fig3Source(1024);
    double worst = 0;
    for (std::size_t i = 0; i < std::size(bench::kTable4Cases); ++i) {
        const double cycles = static_cast<double>(
            bench::runCase(src, bench::kTable4Cases[i]).cycles);
        worst = std::max(worst, std::abs(cycles - kPaperCycles[i]) /
                                    kPaperCycles[i] * 100.0);
    }
    return worst;
}

} // namespace layerbench
