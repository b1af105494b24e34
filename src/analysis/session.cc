/**
 * @file
 * The analysis session: products on demand, and analyzeProgram as the
 * session that is asked for all of them.
 */

#include "session.hh"

namespace crisp::analysis
{

namespace
{

/** The product in @p slot, made by @p make on first use. */
template <class T, class Make>
const T&
once(std::optional<T>& slot, Make make)
{
    if (!slot)
        slot.emplace(make());
    return *slot;
}

} // namespace

AnalysisSession::AnalysisSession(const Program& prog,
                                 const AnalysisOptions& opt)
    : opt_(opt), cfg_(std::make_shared<Cfg>(prog, opt.policy))
{
}

const std::map<Addr, SpreadInfo>&
AnalysisSession::spread()
{
    return once(spread_, [&] { return analyzeSpread(*cfg_); });
}

const std::map<Addr, BranchSite>&
AnalysisSession::sites()
{
    return once(sites_,
                [&] { return collectBranchSites(*cfg_, spread()); });
}

const AbsIntResult&
AnalysisSession::absint()
{
    return once(absint_, [&] { return interpret(*cfg_); });
}

const SccpResult&
AnalysisSession::sccp()
{
    return once(sccp_, [&] { return analysis::sccp(*cfg_); });
}

const LivenessResult&
AnalysisSession::liveness()
{
    return once(live_,
                [&] { return computeLiveness(*cfg_, sccp().state); });
}

const ReachDefsResult&
AnalysisSession::reachdefs()
{
    return once(reachdefs_,
                [&] { return computeReachDefs(*cfg_, sccp().state); });
}

const CallGraph&
AnalysisSession::callgraph()
{
    if (!callgraph_)
        callgraph_ = std::make_shared<CallGraph>(*cfg_);
    return *callgraph_;
}

const TargetsResult&
AnalysisSession::targets()
{
    return once(targets_, [&] {
        return analyzeTargets(*cfg_, callgraph(), sccp());
    });
}

const CostSummary&
AnalysisSession::cost()
{
    // SCCP's edge-pruned fixpoint is at least as precise as plain
    // absint, so the cost engine sees strictly more constancy proofs.
    return once(cost_, [&] {
        return computeCost(*cfg_, spread(), sites(), sccp().state,
                           opt_.costPredict);
    });
}

const std::vector<Diagnostic>&
AnalysisSession::errors()
{
    return once(errors_, [&] {
        return errorDiagnostics(*cfg_, opt_.stackCacheWords);
    });
}

const std::vector<Diagnostic>&
AnalysisSession::diagnostics()
{
    return once(diags_, [&] { return diagnose(*this); });
}

AnalysisResult
AnalysisSession::result() &&
{
    // The rules read every product, so each slot below is filled
    // (value() throws rather than reading an empty one).
    diagnostics();
    AnalysisResult r;
    r.cfg = cfg_;
    r.spread = std::move(spread_).value();
    r.sites = std::move(sites_).value();
    r.absint = std::move(absint_).value();
    r.sccp = std::move(sccp_).value();
    r.live = std::move(live_).value();
    r.reachdefs = std::move(reachdefs_).value();
    r.callgraph = callgraph_;
    r.targets = std::move(targets_).value();
    r.cost = std::move(cost_).value();
    annotateTargets(r.cost, r.sites, r.targets);
    r.diags = std::move(diags_).value();

    r.staticEntries = static_cast<int>(r.cfg->nodes().size());
    for (const auto& [pc, s] : r.sites) {
        ++r.staticBranchSites;
        if (s.conditional)
            ++r.staticCondSites;
        if (s.cls != FoldClass::kLone)
            ++r.staticFoldedSites;
        if (s.cls != FoldClass::kFolded)
            ++r.staticLoneSites;
        if (s.guaranteedResolved)
            ++r.staticGuaranteedCondSites;
    }
    return r;
}

AnalysisResult
analyzeProgram(const Program& prog, const AnalysisOptions& opt)
{
    return AnalysisSession(prog, opt).result();
}

} // namespace crisp::analysis
