/**
 * @file
 * Static branch-cost engine: a per-site delay interval, in cycles, that
 * every dynamic execution of the site must fall inside.
 *
 * The delay of one dynamic branch execution is what the simulator
 * reports in BranchEvent::delayCycles: 0 when resolved at issue or
 * correctly predicted, the paper's 3/2/1 mispredict staircase keyed by
 * the stage the branch occupies when its compare retires, and exactly 2
 * for an indirect jump's retirement-read target bubbles.
 *
 * Per-site cost lattice (docs/TIMING.md gives the derivation):
 *
 *   site kind                          bound [lo, hi]
 *   ---------------------------------  --------------
 *   direct unconditional (jmp, call)   [0, 0]   Next-PC redirect
 *   indirect jump                      [2, 2]   target read at retire
 *   indirect jump, unreachable         [0, 0]   vacuous: never retires
 *   conditional, spread-guaranteed     [0, 0]   can never speculate
 *   conditional, folded, min spread d  [0, 3 - min(d, 3)]
 *   conditional, lone (not guaranteed) [0, 3]   verified in its own RR
 *   conditional, mixed                 max over both issue points
 *
 * An indirect site whose issue points the edge-pruned fixpoint proves
 * unreachable collapses to a vacuous [0, 0] — it can never retire, so
 * the bound holds over the empty set of executions, exactly like an
 * unreachable conditional site. A *reachable* indirect site always
 * costs exactly 2 dynamically; making one cheaper requires rewriting
 * it to a direct branch (crispcc -O devirtualization, fed by the
 * target-set analysis whose verdicts SiteCost carries as metadata).
 *
 * Refinement: when the abstract interpreter proves the flag constant at
 * every issue point of a conditional site AND the hardware prediction
 * is statically known to agree (static-bit predictor with a matching
 * bit, or a predict-not-taken machine at a never-taken branch), the
 * site can never mispredict and the bound collapses to [0, 0].
 *
 * Soundness rests on two monotonicities: the static minimum spread
 * distance under-approximates every dynamic compare/branch separation,
 * and the staircase delay is non-increasing in that separation. The
 * oracle (oracle.hh) holds every retired BranchEvent and the SimStats
 * delay total inside these bounds on every torture run.
 */

#ifndef CRISP_ANALYSIS_COST_HH
#define CRISP_ANALYSIS_COST_HH

#include <map>
#include <set>

#include "absint.hh"
#include "dataflow.hh"
#include "sim/config.hh"

namespace crisp::analysis
{

struct TargetsResult;

/** What the analyzer may assume about the issue-time prediction. */
enum class PredictSource : std::uint8_t {
    kStaticBit = 0, //!< EU honors the compiler bit (CRISP hardware)
    kNotTaken,      //!< respectPredictionBit off: always predict fall
    kUnknown,       //!< dynamic predictor: assume nothing
};

std::string_view predictSourceName(PredictSource s);

/** The assumption matching one simulator configuration. */
PredictSource predictSourceFor(const SimConfig& cfg);

/** Inclusive delay interval in cycles. */
struct DelayBound
{
    int lo = 0;
    int hi = 3;

    bool
    contains(int d) const
    {
        return lo <= d && d <= hi;
    }

    bool operator==(const DelayBound&) const = default;
};

/** Static cost verdict for one branch site. */
struct SiteCost
{
    Addr branchPc = 0;
    bool conditional = false;
    bool indirect = false;

    DelayBound bound;

    /** Minimum spread distance over the site's issue points
     *  (kSlotCap when the site is unconditional). */
    int minSpreadSlots = 0;

    /** The abstract interpreter proved the flag constant at every
     *  issue point, with one agreed direction. */
    bool constantDirection = false;
    /** The proven direction (valid when constantDirection). */
    bool alwaysTaken = false;
    /** The constant direction provably matches the prediction, so the
     *  site can never mispredict (this is what collapses hi to 0). */
    bool predictionProvablyCorrect = false;

    // Indirect-site target metadata (valid when `indirect`, and only
    // after annotateTargets).
    /** The target analysis proved a finite target set for the site. */
    bool targetResolved = false;
    /** Size of the proven (or fallback) target set. */
    std::size_t targetCount = 0;
    /** Exactly one proven target: crispcc -O can devirtualize the
     *  site into a direct branch, dropping its cost from 2 to 0. */
    bool targetSingleton = false;

    bool operator==(const SiteCost&) const = default;
};

/** Whole-program cost summary. */
struct CostSummary
{
    /** Keyed by branch parcel pc, mirroring AnalysisResult::sites. */
    std::map<Addr, SiteCost> sites;

    /** The prediction assumption the refinement used. */
    PredictSource predict = PredictSource::kStaticBit;

    /** True when the abstract fixpoint converged (it always stays
     *  sound; this only gates precision-dependent reporting). */
    bool absintConverged = true;

    // Site counts by verdict.
    int constantSites = 0;
    int zeroDelaySites = 0; //!< hi == 0: provably free
    int maxDelayPerSite = 0; //!< max hi over all sites

    const SiteCost* find(Addr branch_pc) const;

    bool operator==(const CostSummary&) const = default;
};

/**
 * Derive per-site delay bounds from the spread dataflow, the branch
 * site classification and the abstract fixpoint, under prediction
 * assumption @p predict. @p targets, when non-null, annotates
 * indirect sites with their proven target sets (annotateTargets;
 * the enforced bound never depends on it).
 */
CostSummary computeCost(const Cfg& cfg,
                        const std::map<Addr, SpreadInfo>& spread,
                        const std::map<Addr, BranchSite>& sites,
                        const AbsIntResult& ai, PredictSource predict,
                        const TargetsResult* targets = nullptr);

/**
 * Annotate the indirect sites of @p cs with the proven target sets of
 * @p targets (targetResolved, targetCount, targetSingleton). Metadata
 * only: no bound changes. @p sites is the map @p cs was computed from.
 */
void annotateTargets(CostSummary& cs,
                     const std::map<Addr, BranchSite>& sites,
                     const TargetsResult& targets);

/**
 * Issue points that become unreachable once every provably-constant
 * conditional branch is pruned to its live edge — the targets the
 * cost.dead-branch rule reports. Keyed set of dead node addresses.
 */
std::set<Addr> deadAfterConstantPruning(const Cfg& cfg,
                                        const AbsIntResult& ai);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_COST_HH
