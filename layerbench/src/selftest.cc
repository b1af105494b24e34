/**
 * @file
 * In-process self-tests (layerbench --selftest). run.py --selftest adds
 * the process-level ones: corrupted references, seed repeatability and
 * the written span file.
 */

#include <cstdio>
#include <string>

#include "bench.hh"
#include "cc/compiler.hh"
#include "verify/generator.hh"
#include "workloads/workloads.hh"

namespace layerbench
{

using namespace crisp;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    if (ok)
        return;
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
}

bool
sameCost(const analysis::CostSummary& a, const analysis::CostSummary& b)
{
    if (a.predict != b.predict || a.absintConverged != b.absintConverged ||
        a.constantSites != b.constantSites ||
        a.zeroDelaySites != b.zeroDelaySites ||
        a.maxDelayPerSite != b.maxDelayPerSite ||
        a.sites.size() != b.sites.size())
        return false;
    for (const auto& [pc, x] : a.sites) {
        const auto it = b.sites.find(pc);
        if (it == b.sites.end())
            return false;
        const analysis::SiteCost& y = it->second;
        if (x.branchPc != y.branchPc || x.conditional != y.conditional ||
            x.indirect != y.indirect || !(x.bound == y.bound) ||
            x.minSpreadSlots != y.minSpreadSlots ||
            x.constantDirection != y.constantDirection ||
            x.alwaysTaken != y.alwaysTaken ||
            x.predictionProvablyCorrect != y.predictionProvablyCorrect ||
            x.targetResolved != y.targetResolved ||
            x.targetCount != y.targetCount ||
            x.targetSingleton != y.targetSingleton)
            return false;
    }
    return true;
}

/**
 * The step-by-step sequence the traced run times must compute what one
 * analyzeProgram call computes: the same CFG, spread and site facts,
 * fixpoints, liveness verdicts, def-use chains, target sets and cost.
 */
void
analysisStepsMatch(const std::string& name, const Program& prog)
{
    Recorder off;
    const analysis::AnalysisResult steps = analyzeSteps(prog, off);
    const analysis::AnalysisResult whole = analysis::analyzeProgram(prog);
    const std::string at = "analysis steps (" + name + "): ";
    expect(steps.cfg->nodes().size() == whole.cfg->nodes().size(),
           at + "CFG nodes");
    expect(steps.spread.size() == whole.spread.size() &&
               steps.sites.size() == whole.sites.size(),
           at + "spread and branch sites");
    expect(steps.absint.steps == whole.absint.steps &&
               steps.absint.converged == whole.absint.converged,
           at + "abstract interpretation");
    expect(steps.sccp.state.steps == whole.sccp.state.steps &&
               steps.sccp.executable == whole.sccp.executable &&
               steps.sccp.provenDirection == whole.sccp.provenDirection,
           at + "SCCP");
    expect(steps.live.dead.size() == whole.live.dead.size() &&
               steps.live.converged == whole.live.converged,
           at + "liveness");
    expect(steps.reachdefs.defUses == whole.reachdefs.defUses,
           at + "reaching definitions");
    expect(steps.targets.sites.size() == whole.targets.sites.size() &&
               steps.targets.steps == whole.targets.steps &&
               steps.targets.resolvedCount() ==
                   whole.targets.resolvedCount(),
           at + "targets");
    expect(sameCost(steps.cost, whole.cost), at + "CostSummary");
}

void
recorderChecks()
{
    Recorder tr;
    tr.setEnabled(true);
    {
        Request req(tr, "cycle", 0);
        Span outer(tr, "cc.compile");
        Span inner(tr, "sim.cycle_run");
    }
    {
        Request req(tr, "lint", 1);
        Span s(tr, "analysis.analyze");
    }
    expect(tr.validate().empty(), "recorder: nested spans validate");
    expect(tr.requests().size() == 2, "recorder: one id per request");
    for (const std::int64_t self : tr.selfTimes())
        expect(self >= 0, "recorder: self time is never negative");

    Recorder bad;
    const std::int32_t root = bad.addRequest("serve", 0, 100, 200);
    bad.add("service.job", 150, 250, root);
    expect(!bad.validate().empty(),
           "recorder: a child outside its parent is reported");
    Recorder negative;
    const std::int32_t r2 = negative.addRequest("serve", 0, 100, 200);
    negative.add("service.protocol", 100, 180, r2);
    negative.add("service.protocol", 110, 190, r2);
    expect(!negative.validate().empty(),
           "recorder: negative self time is reported");
}

} // namespace

int
runSelftest()
{
    recorderChecks();
    for (const Workload& w : allWorkloads())
        analysisStepsMatch(w.name, cc::compile(w.source).program);
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        analysisStepsMatch("generated " + std::to_string(seed),
                           verify::generate(seed).link());
    }
    std::printf("layerbench selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

} // namespace layerbench
