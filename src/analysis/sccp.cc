/**
 * @file
 * Sparse conditional constant propagation: the absint fixpoint policy
 * with edge feasibility and per-edge flag refinement.
 */

#include "sccp.hh"

namespace crisp::analysis
{

SccpResult
sccp(const Cfg& cfg, const AbsIntOptions& opts)
{
    SccpResult r;
    AbsIntResult& st = r.state;
    const AbsPolicy policy{entryState(cfg.program()), /*conditional=*/true};
    static_cast<FixpointRun&>(st) =
        solveFixpoint(cfg, policy, st.in, st.out, opts.stepCap);

    // A step-cap bail leaves every node all-top: executable, with no
    // direction proven.
    for (const auto& [pc, s] : st.in) {
        if (!s.reachable)
            continue;
        r.executable.insert(pc);
        const CfgNode& n = cfg.node(pc);
        if (!n.di.hasCondBranch())
            continue;
        if (const auto f = st.out.at(pc).flag.constant())
            r.provenDirection.emplace(pc, n.di.condTaken(*f));
    }
    return r;
}

} // namespace crisp::analysis
