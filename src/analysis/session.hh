/**
 * @file
 * One analysis session per (program, options): every product of
 * analyzeProgram, each computed on first use and kept, so a caller
 * pays only for the products it reads.
 *
 * Products and the products each is computed from. Each accessor asks
 * for its inputs through their accessors, so every edge below is
 * written once, in session.cc:
 *
 *   cfg          the program and options.policy (built with the
 *                session: every other product reads it)
 *   spread       cfg
 *   sites        cfg, spread
 *   absint       cfg
 *   sccp         cfg
 *   liveness     cfg, sccp
 *   reachdefs    cfg, sccp
 *   callgraph    cfg
 *   targets      cfg, callgraph, sccp
 *   cost         cfg, spread, sites, sccp
 *   errors       cfg, the stack window
 *   diagnostics  every product above
 *
 * The cost product holds the enforced per-site bounds only. Target-set
 * metadata never feeds a bound (cost.hh), so asking for cost does not
 * run the value-set fixpoint; result() annotates the metadata for the
 * full report.
 */

#ifndef CRISP_ANALYSIS_SESSION_HH
#define CRISP_ANALYSIS_SESSION_HH

#include <memory>
#include <optional>

#include "checks.hh"

namespace crisp::analysis
{

class AnalysisSession
{
  public:
    /** Builds the CFG, which keeps its own copy of @p prog. */
    explicit AnalysisSession(const Program& prog,
                             const AnalysisOptions& opt = {});

    const AnalysisOptions& options() const { return opt_; }
    const Cfg& cfg() const { return *cfg_; }
    std::shared_ptr<const Cfg> sharedCfg() const { return cfg_; }

    const std::map<Addr, SpreadInfo>& spread();
    const std::map<Addr, BranchSite>& sites();
    const AbsIntResult& absint();
    const SccpResult& sccp();
    const LivenessResult& liveness();
    const ReachDefsResult& reachdefs();
    const CallGraph& callgraph();
    const TargetsResult& targets();
    /** Per-site delay bounds, without target-set metadata. */
    const CostSummary& cost();
    /** The error-level diagnostics alone, in report order. */
    const std::vector<Diagnostic>& errors();
    /** Every diagnostic, in report order. */
    const std::vector<Diagnostic>& diagnostics();

    bool hasErrors() { return !errors().empty(); }

    /** Every product as one AnalysisResult, moved out of the session
     *  (what analyzeProgram returns). */
    AnalysisResult result() &&;

  private:
    AnalysisOptions opt_;
    std::shared_ptr<const Cfg> cfg_;
    std::optional<std::map<Addr, SpreadInfo>> spread_;
    std::optional<std::map<Addr, BranchSite>> sites_;
    std::optional<AbsIntResult> absint_;
    std::optional<SccpResult> sccp_;
    std::optional<LivenessResult> live_;
    std::optional<ReachDefsResult> reachdefs_;
    std::shared_ptr<const CallGraph> callgraph_;
    std::optional<TargetsResult> targets_;
    std::optional<CostSummary> cost_;
    std::optional<std::vector<Diagnostic>> errors_;
    std::optional<std::vector<Diagnostic>> diags_;
};

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_SESSION_HH
