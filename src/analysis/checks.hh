/**
 * @file
 * Diagnostics over the CFG + dataflow results: a machine-readable rule
 * catalogue with severities, PCs, fix hints and a JSON report.
 *
 * Rule catalogue (docs/ANALYSIS.md keeps the prose version):
 *
 *   error   cfg.decode-error        reachable address fails to decode
 *   error   cfg.bad-target          branch target outside text/unaligned
 *   error   cfg.indirect-no-table   indirect jump but no candidate set
 *   error   cc.writer-not-compare   CC-writing body is not a compare
 *   error   stack.negative-slot     stack operand below the frame
 *   warning cfg.unreachable         text bytes no issue point covers
 *   warning spread.short            cond branch may have to speculate
 *   warning cc.maybe-missing-compare cond branch before any compare
 *   warning predict.backward-not-taken  loop branch predicted not-taken
 *   warning predict.forward-taken   forward branch predicted taken
 *   warning stack.outside-window    stack slot past the cache window
 *   info    fold.lone-branch        branch occupies its own EU slot
 *   info    fold.mixed              branch both folds and issues alone
 *   info    cost.constant-cc        branch direction provably constant
 *   info    cost.dead-branch        constant branch makes code dead
 *   info    dataflow.dead-store     definition provably never observed
 *   info    dataflow.unreachable-after-constant-branch
 *                                   issue points SCCP proves unreachable
 *   info    dataflow.redundant-copy mov X,Y where X already equals Y
 *   warning indirect.out-of-table   proven target word is not a valid
 *                                   text address (jumping would fault)
 *   info    indirect.unresolved-target
 *                                   indirect site fell back to the
 *                                   global candidate set (no proof)
 *   info    callgraph.unreachable-function
 *                                   function called in text but never
 *                                   reachable from the entry
 *
 * Severity contract: errors mean the program will fault or the decode
 * contract is broken; warnings mean a paper invariant (spreading,
 * prediction, stack-cache residency) is not met; info marks missed
 * fold opportunities and abstract-interpretation/dataflow proofs.
 * crisplint exits nonzero on warnings and errors.
 */

#ifndef CRISP_ANALYSIS_CHECKS_HH
#define CRISP_ANALYSIS_CHECKS_HH

#include <memory>
#include <string>
#include <vector>

#include "callgraph.hh"
#include "cfg.hh"
#include "cost.hh"
#include "dataflow.hh"
#include "liveness.hh"
#include "reachdefs.hh"
#include "sccp.hh"
#include "targets.hh"

namespace crisp::analysis
{

enum class Severity : std::uint8_t { kInfo = 0, kWarning, kError };

std::string_view severityName(Severity s);

struct Diagnostic
{
    Severity severity = Severity::kInfo;
    Addr pc = 0;
    /** Stable rule id ("spread.short", ...). */
    std::string rule;
    std::string message;
    /** Actionable remediation, empty when none applies. */
    std::string hint;

    std::string toString() const;

    bool operator==(const Diagnostic&) const = default;
};

/** Which prediction-bit convention the program claims to follow. */
enum class PredictConvention : std::uint8_t {
    kNone = 0,    //!< bits are free (generated/torture programs)
    kHeuristic,   //!< backward taken, forward not taken
    kAllNotTaken, //!< every bit clear (Table 4 case A builds)
};

struct AnalysisOptions
{
    FoldPolicy policy = FoldPolicy::kCrisp;
    PredictConvention predict = PredictConvention::kHeuristic;
    /** Stack-cache window to check operands against (config default). */
    int stackCacheWords = 32;
    /** Emit info-level fold classification diagnostics. */
    bool foldInfo = true;
    /**
     * Prediction assumption for the cost engine's constant-branch
     * refinement; must match the simulator configuration being
     * bounded (predictSourceFor maps SimConfig to this).
     */
    PredictSource costPredict = PredictSource::kStaticBit;
};

/** Everything the analyzer derived, plus the diagnostics. */
struct AnalysisResult
{
    std::shared_ptr<const Cfg> cfg;
    /** Keyed by issue-point pc. */
    std::map<Addr, SpreadInfo> spread;
    /** Keyed by branch parcel pc. */
    std::map<Addr, BranchSite> sites;
    /** Abstract fixpoint over the same CFG (value/flag facts). */
    AbsIntResult absint;
    /** SCCP fixpoint (edge-pruned, at least as precise as absint). */
    SccpResult sccp;
    /** Backward liveness over SCCP's facts. */
    LivenessResult live;
    /** Reaching definitions + def-use chains. */
    ReachDefsResult reachdefs;
    /** Call graph (functions, call sites, return-site matching). */
    std::shared_ptr<const CallGraph> callgraph;
    /** Per-site indirect/return target sets. */
    TargetsResult targets;
    /** Per-site static delay bounds over SCCP's facts, annotated with
     *  the target sets. */
    CostSummary cost;
    std::vector<Diagnostic> diags;

    // Aggregates (the counters the dynamic cross-check consumes).
    int staticEntries = 0;
    int staticBranchSites = 0;
    int staticCondSites = 0;
    int staticFoldedSites = 0; //!< cls kFolded or kMixed
    int staticGuaranteedCondSites = 0;
    int staticLoneSites = 0;   //!< cls kLone or kMixed

    bool hasErrors() const;
    bool hasWarnings() const;
    int count(Severity s) const;

    /** One line per diagnostic plus a summary header. */
    std::string toString() const;

    /** The full report as one JSON object (schema: docs/ANALYSIS.md). */
    std::string toJson() const;

    /** Human-readable per-site cost table (crisplint --cost,
     *  crispcc --cost-audit). */
    std::string costTableText() const;

    /** Human-readable indirect/return target-set table plus the
     *  call-graph summary (crispcc --targets). */
    std::string targetsTableText() const;

    /**
     * The diagnostics as a SARIF 2.1.0 log (one run, one artifact).
     * @p artifactUri names the analyzed input; PCs are reported as
     * region byte offsets into that artifact. Severity maps
     * error→"error", warning→"warning", info→"note".
     */
    std::string toSarif(const std::string& artifactUri) const;
};

class AnalysisSession;

/**
 * Every product of an analysis session (session.hh): the CFG, every
 * pass, and every diagnostic.
 */
AnalysisResult analyzeProgram(const Program& prog,
                              const AnalysisOptions& opt = {});

/**
 * The error-level diagnostics of @p cfg, in report order. Every error
 * rule reads only the CFG or the stack window, so no fixpoint runs.
 */
std::vector<Diagnostic> errorDiagnostics(const Cfg& cfg,
                                         int stackCacheWords);

/** Every rule over the products of @p s, in report order. */
std::vector<Diagnostic> diagnose(AnalysisSession& s);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_CHECKS_HH
