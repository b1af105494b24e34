/**
 * @file
 * Static per-site branch delay bounds.
 */

#include "cost.hh"

#include <algorithm>
#include <deque>

#include "targets.hh"

namespace crisp::analysis
{

std::string_view
predictSourceName(PredictSource s)
{
    switch (s) {
      case PredictSource::kStaticBit:
        return "static-bit";
      case PredictSource::kNotTaken:
        return "not-taken";
      case PredictSource::kUnknown:
        return "unknown";
    }
    return "?";
}

PredictSource
predictSourceFor(const SimConfig& cfg)
{
    if (!cfg.respectPredictionBit)
        return PredictSource::kNotTaken;
    if (cfg.predictor == PredictorKind::kStaticBit)
        return PredictSource::kStaticBit;
    return PredictSource::kUnknown;
}

const SiteCost*
CostSummary::find(Addr branch_pc) const
{
    const auto it = sites.find(branch_pc);
    return it == sites.end() ? nullptr : &it->second;
}

namespace
{

/** Issue points a site executes through (carrier and/or lone entry). */
std::vector<Addr>
issuePointsOf(const BranchSite& s)
{
    switch (s.cls) {
      case FoldClass::kFolded:
        return {s.carrierPc};
      case FoldClass::kLone:
        return {s.branchPc};
      case FoldClass::kMixed:
        return {s.carrierPc, s.branchPc};
    }
    return {s.branchPc};
}

/**
 * Worst-case delay of one conditional issue point: 0 when the spread
 * pass proves resolution at issue; otherwise the staircase keyed by
 * the minimum compare distance for a folded entry (its compare's
 * retirement finds the branch at most 3 - d stages deep), and the
 * full 3 for a lone entry (only verified in its own RR).
 */
int
issuePointHi(const Cfg& cfg, const std::map<Addr, SpreadInfo>& spread,
             Addr ip)
{
    const auto it = spread.find(ip);
    if (it == spread.end())
        return 3; // defensively pessimal; every cond ip has an entry
    const SpreadInfo& si = it->second;
    if (si.guaranteedResolved)
        return 0;
    if (cfg.has(ip) && cfg.node(ip).di.folded) {
        const int d = si.issueSlots < 3 ? si.issueSlots : 3;
        return 3 - d;
    }
    return 3;
}

} // namespace

CostSummary
computeCost(const Cfg& cfg, const std::map<Addr, SpreadInfo>& spread,
            const std::map<Addr, BranchSite>& sites,
            const AbsIntResult& ai, PredictSource predict,
            const TargetsResult* targets)
{
    CostSummary cs;
    cs.predict = predict;
    cs.absintConverged = ai.converged;

    for (const auto& [pc, s] : sites) {
        SiteCost c;
        c.branchPc = pc;
        c.conditional = s.conditional;
        c.indirect = s.indirect;
        c.minSpreadSlots = kSlotCap;

        if (s.indirect) {
            // Target read at retirement: exactly two issue bubbles.
            c.bound = {2, 2};
            // Unless no issue point can execute: a site the
            // edge-pruned fixpoint proves unreachable never retires,
            // so its bound is vacuously [0, 0] (mirroring the
            // unreachable-conditional case below). With the plain
            // interpreter every node is reachable and this never
            // fires.
            bool any_live = false;
            for (const Addr ip : issuePointsOf(s)) {
                if (ai.outAt(ip).reachable)
                    any_live = true;
            }
            if (!any_live)
                c.bound = {0, 0};
        } else if (!s.conditional) {
            // Direct jmp/call: the Next-PC field redirects at issue.
            c.bound = {0, 0};
        } else {
            c.bound = {0, 0};
            // Issue points the abstract interpretation proves can never
            // execute contribute nothing: under sparse conditional
            // constant propagation a pruned-away entry must not
            // pessimize the bound. With the plain interpreter every CFG
            // node is reachable, so this filter is a no-op there.
            std::vector<Addr> ips;
            for (const Addr ip : issuePointsOf(s)) {
                if (ai.outAt(ip).reachable)
                    ips.push_back(ip);
            }
            for (const Addr ip : ips) {
                const int hi = issuePointHi(cfg, spread, ip);
                if (hi > c.bound.hi)
                    c.bound.hi = hi;
                const auto sit = spread.find(ip);
                const int d =
                    sit == spread.end() ? 0 : sit->second.issueSlots;
                if (d < c.minSpreadSlots)
                    c.minSpreadSlots = d;
            }

            // Constancy: the post-body flag must be proven, and the
            // branch direction must agree, at every reachable issue
            // point. A site with no reachable issue point never
            // executes at all; its [0,0] bound is vacuous, not a
            // direction proof.
            bool constant = !ips.empty();
            bool dir = false;
            bool first = true;
            for (const Addr ip : ips) {
                if (!cfg.has(ip)) {
                    constant = false;
                    break;
                }
                const DecodedInst& di = cfg.node(ip).di;
                const auto f = ai.outAt(ip).flag.constant();
                if (!f) {
                    constant = false;
                    break;
                }
                const bool taken = di.condTaken(*f);
                if (first) {
                    dir = taken;
                    first = false;
                } else if (taken != dir) {
                    constant = false;
                    break;
                }
            }
            if (constant) {
                c.constantDirection = true;
                c.alwaysTaken = dir;
                // A provably correct prediction can never mispredict:
                // the speculative path is the architectural path, so
                // zero cycles are ever lost.
                if (predict == PredictSource::kStaticBit)
                    c.predictionProvablyCorrect = dir == s.predictTaken;
                else if (predict == PredictSource::kNotTaken)
                    c.predictionProvablyCorrect = !dir;
                if (c.predictionProvablyCorrect)
                    c.bound = {0, 0};
            }
        }

        if (c.constantDirection)
            ++cs.constantSites;
        if (c.bound.hi == 0)
            ++cs.zeroDelaySites;
        if (c.bound.hi > cs.maxDelayPerSite)
            cs.maxDelayPerSite = c.bound.hi;
        cs.sites.emplace(pc, c);
    }
    if (targets)
        annotateTargets(cs, sites, *targets);
    return cs;
}

void
annotateTargets(CostSummary& cs, const std::map<Addr, BranchSite>& sites,
                const TargetsResult& targets)
{
    // Reporting and devirtualization metadata only: a reachable
    // indirect site costs exactly 2 no matter how small its set.
    for (auto& [pc, c] : cs.sites) {
        if (!c.indirect)
            continue;
        for (const Addr ip : issuePointsOf(sites.at(pc))) {
            if (const SiteTargets* st = targets.siteAt(ip)) {
                c.targetResolved = st->resolved;
                c.targetCount = st->targets.size();
                c.targetSingleton = st->singleton();
            }
        }
    }
}

std::set<Addr>
deadAfterConstantPruning(const Cfg& cfg, const AbsIntResult& ai)
{
    std::set<Addr> dead;
    const Addr entry = cfg.program().entry;
    if (!cfg.has(entry))
        return dead;

    std::set<Addr> live{entry};
    std::deque<Addr> work{entry};
    while (!work.empty()) {
        const Addr pc = work.front();
        work.pop_front();
        const CfgNode& n = cfg.node(pc);

        std::vector<Addr> follow = n.succs;
        if (n.di.hasCondBranch()) {
            if (const auto f = ai.outAt(pc).flag.constant()) {
                const Addr tgt = n.di.condTaken(*f) ? n.di.takenPc
                                                    : n.di.seqPc;
                // Prune to the proven edge — but only when that edge
                // survived target validation; otherwise keep them all.
                if (std::find(n.succs.begin(), n.succs.end(), tgt) !=
                    n.succs.end()) {
                    follow.assign(1, tgt);
                }
            }
        }
        for (const Addr s : follow) {
            if (live.insert(s).second)
                work.push_back(s);
        }
    }

    for (const auto& [pc, n] : cfg.nodes()) {
        if (live.count(pc) == 0)
            dead.insert(pc);
    }
    return dead;
}

} // namespace crisp::analysis
