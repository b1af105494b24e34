/**
 * @file
 * Concrete dataflow passes over the issue-point CFG.
 */

#include "dataflow.hh"

#include <algorithm>

#include "fixpoint.hh"

namespace crisp::analysis
{

namespace
{

/**
 * Reaching-compare facts on entry to an issue point: the slot distance
 * since the last CC writer (saturating at kSlotCap) and whether some
 * path arrives with no compare executed at all.
 */
struct SpreadState
{
    bool reached = false;
    int dist = kSlotCap;
    bool noCompare = false;

    bool operator==(const SpreadState&) const = default;
};

/** Reaching-compare analysis as a fixpoint policy (fixpoint.hh). */
struct SpreadPolicy
{
    using State = SpreadState;
    static constexpr Direction kDirection = Direction::kForward;

    // The entry starts at the cap: before the first compare ever
    // executes the flag is architecturally final, so a branch there
    // resolves at issue exactly like a fully spread one.
    SpreadState boundary() const { return {true, kSlotCap, true}; }
    SpreadState top() const { return {true, 0, true}; }

    SpreadState
    join(const SpreadState& a, const SpreadState& b) const
    {
        if (!a.reached)
            return b;
        if (!b.reached)
            return a;
        return {true, std::min(a.dist, b.dist), a.noCompare || b.noCompare};
    }

    SpreadState
    transfer(const CfgNode& n, const SpreadState& in) const
    {
        if (!in.reached)
            return SpreadState{};
        const bool writes_cc = n.di.totalParcels > 0 && n.di.writesCc;
        return {true, writes_cc ? 0 : std::min(in.dist + 1, kSlotCap),
                in.noCompare && !writes_cc};
    }
};

} // namespace

std::map<Addr, SpreadInfo>
analyzeSpread(const Cfg& cfg)
{
    std::map<Addr, SpreadState> in;
    std::map<Addr, SpreadState> out_state;
    solveFixpoint(cfg, SpreadPolicy{}, in, out_state);

    std::map<Addr, SpreadInfo> out;
    for (const auto& [pc, n] : cfg.nodes()) {
        if (n.di.totalParcels == 0 || !n.di.hasCondBranch())
            continue;
        SpreadInfo s;
        s.pc = pc;
        s.branchPc = n.di.branchPc;
        // A branch folded with its own compare issues in the same slot
        // as the CC write: separation zero by definition.
        s.issueSlots =
            n.di.writesCc ? 0 : std::min(in.at(pc).dist + 1, kSlotCap);
        s.guaranteedResolved = s.issueSlots >= kResolveSlots;
        s.compareMayBeMissing = in.at(pc).noCompare;
        out.emplace(pc, s);
    }
    return out;
}

std::string_view
noFoldReasonName(NoFoldReason r)
{
    switch (r) {
      case NoFoldReason::kNone:
        return "folds";
      case NoFoldReason::kPolicyNone:
        return "folding disabled by policy";
      case NoFoldReason::kNotOneParcel:
        return "branch is not one parcel (calls and relaxed branches)";
      case NoFoldReason::kIndirect:
        return "indirect branches never fold";
      case NoFoldReason::kNoCarrier:
        return "only entered directly (jump target or entry point)";
      case NoFoldReason::kCarrierTooLong:
        return "carrier too long for the fold policy";
      case NoFoldReason::kCarrierControl:
        return "preceding instruction transfers control";
    }
    return "?";
}

namespace
{

NoFoldReason
loneReason(const Cfg& cfg, const CfgNode& n)
{
    const DecodedInst& di = n.di;
    if (di.ctl == Ctl::kIndirect)
        return NoFoldReason::kIndirect;
    if (di.totalParcels != 1)
        return NoFoldReason::kNotOneParcel;
    if (cfg.policy() == FoldPolicy::kNone)
        return NoFoldReason::kPolicyNone;

    // A one-parcel PC-relative branch that still issues alone: nothing
    // upstream could carry it. Distinguish "the textual predecessor
    // falls in without folding" (too-long carrier) from "control only
    // ever arrives by transfer".
    NoFoldReason r = NoFoldReason::kNoCarrier;
    for (const Addr p : n.preds) {
        const DecodedInst& pd = cfg.node(p).di;
        if (pd.ctl == Ctl::kSeq && pd.seqPc == di.pc)
            return NoFoldReason::kCarrierTooLong;
        if (isCallReturnEdge(pd, di.pc))
            r = NoFoldReason::kCarrierControl;
    }
    return r;
}

} // namespace

std::map<Addr, BranchSite>
collectBranchSites(const Cfg& cfg,
                   const std::map<Addr, SpreadInfo>& spread)
{
    struct Occurrence
    {
        bool folded = false;
        bool lone = false;
        bool foldedGuaranteed = true;
        bool loneGuaranteed = true;
    };
    std::map<Addr, BranchSite> sites;
    std::map<Addr, Occurrence> occ;

    for (const auto& [pc, n] : cfg.nodes()) {
        const DecodedInst& di = n.di;
        if (di.totalParcels == 0 || (!di.folded && !di.loneBranch))
            continue;

        BranchSite& s = sites[di.branchPc];
        s.branchPc = di.branchPc;
        s.op = di.branchOp;
        s.conditional = di.hasCondBranch();
        s.predictTaken = di.predictTaken;
        s.shortForm = di.branchShortForm;
        s.indirect = di.ctl == Ctl::kIndirect;
        s.takenPc = di.takenPc;

        Occurrence& o = occ[di.branchPc];
        const bool guaranteed =
            !di.hasCondBranch() ||
            (spread.count(pc) != 0 && spread.at(pc).guaranteedResolved);
        if (di.folded) {
            o.folded = true;
            o.foldedGuaranteed = o.foldedGuaranteed && guaranteed;
            s.carrierPc = pc;
        } else {
            o.lone = true;
            o.loneGuaranteed = o.loneGuaranteed && guaranteed;
            s.reason = loneReason(cfg, n);
        }
    }

    for (auto& [pc, s] : sites) {
        const Occurrence& o = occ.at(pc);
        if (o.folded && o.lone)
            s.cls = FoldClass::kMixed;
        else if (o.folded)
            s.cls = FoldClass::kFolded;
        else
            s.cls = FoldClass::kLone;
        if (s.cls == FoldClass::kFolded)
            s.reason = NoFoldReason::kNone;
        s.guaranteedResolved =
            s.conditional && (!o.folded || o.foldedGuaranteed) &&
            (!o.lone || o.loneGuaranteed);
    }
    return sites;
}

std::vector<StackIssue>
analyzeStackWindow(const Cfg& cfg, int window_words)
{
    std::vector<StackIssue> out;
    std::set<std::pair<Addr, std::int32_t>> seen;
    for (const auto& [pc, n] : cfg.nodes()) {
        if (n.di.totalParcels == 0 || n.di.loneBranch)
            continue;
        for (const Operand* o : {&n.di.body.dst, &n.di.body.src}) {
            if (o->mode != AddrMode::kStack && o->mode != AddrMode::kInd)
                continue;
            if (o->value >= 0 && o->value < window_words)
                continue;
            if (!seen.emplace(pc, o->value).second)
                continue;
            StackIssue issue;
            issue.pc = pc;
            issue.slot = o->value;
            issue.negative = o->value < 0;
            out.push_back(issue);
        }
    }
    return out;
}

} // namespace crisp::analysis
