/**
 * @file
 * Static-vs-dynamic cross-check: the analyzer as a pre-simulation
 * oracle.
 *
 * The CFG over-approximates reachability and the spread pass
 * under-approximates compare/branch separation, so on any run of the
 * cycle-level simulator the following must hold:
 *
 *  1. every retired branch pc is a static branch site;
 *  2. a site classified kFolded only ever issues folded, a kLone site
 *     only ever issues alone (kMixed may do either);
 *  3. per-event conditional/short-form/prediction-bit annotations match
 *     the static site exactly (decode is shared, so any disagreement is
 *     a real bug in one of the two decoders' callers);
 *  4. a spread-guaranteed conditional site never speculates: every one
 *     of its executions resolved at issue;
 *  5. the per-site event counts reconcile with the aggregate SimStats
 *     counters (branches, foldedBranches, condBranches,
 *     resolvedAtIssue + speculated);
 *  6. every dynamic indirect-jump target is in the static jump-table
 *     candidate set;
 *  7. COST BOUNDS: every observed BranchEvent::delayCycles lies inside
 *     the site's static delay interval (cost.hh), a constant-direction
 *     proof is never contradicted by an execution, the per-site delay
 *     sums reconcile exactly with SimStats::branchDelayCycles, and
 *     that total lies inside the whole-program envelope
 *     [sum lo*n, sum hi*n]. Bound escapes are reported separately in
 *     costViolations so torture can shrink them as their own verdict.
 *  8. TARGET SETS: every dynamic target of an indirect jump is a
 *     member of the site's *per-site* proven target set
 *     (targets.hh), whenever every issue point covering the branch
 *     proved an enforceable set. Unproven sites fall back to
 *     invariant 6's global candidate check; return sites matched
 *     through the call graph are never enforced (they assume
 *     return-word integrity). Escapes land in targetViolations so
 *     torture can shrink them as their own verdict.
 *
 * crisptorture runs this after every lockstep seed ("static-mismatch",
 * "cost-bound" and "target-set" verdicts); the 200-seed regression
 * test runs it under asan/ubsan.
 */

#ifndef CRISP_ANALYSIS_ORACLE_HH
#define CRISP_ANALYSIS_ORACLE_HH

#include <cstdint>
#include <set>

#include "checks.hh"
#include "interp/trace.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace crisp::analysis
{

/** Dynamic per-branch-site counters accumulated over one run. */
struct SiteCounts
{
    std::uint64_t total = 0;
    std::uint64_t folded = 0;
    std::uint64_t lone = 0;
    std::uint64_t cond = 0;
    std::uint64_t taken = 0;
    std::uint64_t resolvedAtIssue = 0;
    bool sawConditional = false;
    bool sawUnconditional = false;
    bool predictTaken = false;
    bool shortForm = false;

    /** Observed branch-delay cycles across this site's executions. */
    std::uint64_t delaySum = 0;
    int delayMin = 0;
    int delayMax = 0;
};

/** Observer that aggregates simulator branch events per site. */
class SiteRecorder : public ExecObserver
{
  public:
    void
    onBranch(const BranchEvent& ev) override
    {
        SiteCounts& c = sites[ev.pc];
        const int d = static_cast<int>(ev.delayCycles);
        if (c.total == 0) {
            c.delayMin = d;
            c.delayMax = d;
        } else {
            c.delayMin = d < c.delayMin ? d : c.delayMin;
            c.delayMax = d > c.delayMax ? d : c.delayMax;
        }
        c.delaySum += static_cast<std::uint64_t>(d);
        ++c.total;
        if (ev.folded)
            ++c.folded;
        else
            ++c.lone;
        if (ev.conditional) {
            ++c.cond;
            c.sawConditional = true;
            if (ev.resolvedAtIssue)
                ++c.resolvedAtIssue;
        } else {
            c.sawUnconditional = true;
        }
        if (ev.taken)
            ++c.taken;
        c.predictTaken = ev.predictTaken;
        c.shortForm = ev.shortForm;
        if (ev.op == Opcode::kJmp && !ev.shortForm)
            jumpTargets[ev.pc].insert(ev.target);
    }

    /** Keyed by branch pc. */
    std::map<Addr, SiteCounts> sites;
    /** Runtime targets of each far (possibly indirect) jump. */
    std::map<Addr, std::set<Addr>> jumpTargets;
};

/** Outcome of one static-vs-dynamic comparison. */
struct OracleReport
{
    /** Checks were actually applied (analysis was error-free). */
    bool applicable = true;
    std::vector<std::string> mismatches;

    /** Static delay-bound escapes (invariant 7); kept apart from the
     *  structural mismatches so torture reports them as their own
     *  verdict. */
    std::vector<std::string> costViolations;

    /** Proven-target-set escapes (invariant 8); their own vector so
     *  torture can shrink them as their own verdict, too. */
    std::vector<std::string> targetViolations;

    bool
    ok() const
    {
        return mismatches.empty() && costViolations.empty() &&
               targetViolations.empty();
    }

    /** One line per mismatch / cost violation. */
    std::string toString() const;
};

/**
 * Compare an error-free analysis of a program with the dynamic record
 * of one simulator run over that same program and fold policy. When
 * @p st has error-level diagnostics the invariants are not claimed and
 * the report comes back not applicable. Of @p st it reads only the
 * error diagnostics, the sites, their cost bounds, the CFG and the
 * target sets of indirect-jump sites.
 */
OracleReport crossCheck(const AnalysisResult& st, const SimStats& dyn,
                        const SiteRecorder& rec);

/**
 * Convenience wrapper: analyze @p prog under @p cfg's fold policy, run
 * the cycle-level simulator once with a SiteRecorder attached, and
 * cross-check. Prediction-bit conventions are not assumed (generated
 * programs carry arbitrary bits). Runs that fault or time out are
 * reported not applicable.
 */
OracleReport runStaticOracle(const Program& prog, const SimConfig& cfg);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_ORACLE_HH
