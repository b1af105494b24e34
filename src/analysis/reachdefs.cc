/**
 * @file
 * Forward reaching definitions (a policy over the shared fixpoint
 * solver), def-use chains, and the two provably-safe rewrite finders
 * built on them.
 */

#include "reachdefs.hh"

namespace crisp::analysis
{

namespace
{

/** Key-count cap; past it the map degrades to all-wild. */
constexpr std::size_t kKeyCap = 512;

RdState
joinRd(const RdState& a, const RdState& b)
{
    if (!a.reachable)
        return b;
    if (!b.reachable)
        return a;
    RdState j;
    j.reachable = true;
    j.defs = a.defs;
    for (auto& [k, set] : j.defs) {
        const auto it = b.defs.find(k);
        if (it == b.defs.end())
            set.insert(kWildDef); // missing on the other side: wild
        else
            set.insert(it->second.begin(), it->second.end());
    }
    for (const auto& [k, set] : b.defs) {
        if (j.defs.count(k))
            continue;
        auto& s = j.defs[k];
        s = set;
        s.insert(kWildDef);
    }
    if (j.defs.size() > kKeyCap)
        j.defs.clear();
    return j;
}

/** Drop every memory key: an unresolvable store may have hit any word. */
void
havocMem(RdState& s)
{
    for (auto it = s.defs.begin(); it != s.defs.end();) {
        if (it->first >= 0)
            it = s.defs.erase(it);
        else
            ++it;
    }
}

/** Forward transfer of @p di over @p in. */
RdState
transferRd(const DecodedInst& di, const RdState& in, Addr pc,
           const AbsState& pre)
{
    RdState s = in;
    const Instruction& b = di.body;
    const Opcode op = b.op;

    const auto defMem = [&](const Operand& o) {
        if (o.mode == AddrMode::kInd) {
            havocMem(s);
            return;
        }
        const auto a = operandAddress(o, pre);
        if (a)
            s.defs[static_cast<LocKey>(*a)] = {pc};
        else
            havocMem(s);
    };

    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt ||
        op == Opcode::kEnter || op == Opcode::kLeave ||
        op == Opcode::kReturn) {
        // no tracked definition
    } else if (op == Opcode::kCall) {
        const auto sp = pre.sp.constant();
        if (sp) {
            s.defs[static_cast<LocKey>(*sp) -
                   static_cast<LocKey>(kWordBytes)] = {pc};
        } else {
            havocMem(s);
        }
    } else if (op == Opcode::kMov) {
        if (b.dst.mode == AddrMode::kAccum)
            s.defs[kAccumLoc] = {pc};
        else
            defMem(b.dst);
    } else if (isCompare(op)) {
        s.defs[kFlagLoc] = {pc};
    } else if (isAlu3(op)) {
        s.defs[kAccumLoc] = {pc};
    } else if (isAlu2(op)) {
        defMem(b.dst);
    }
    if (s.defs.size() > kKeyCap)
        s.defs.clear();
    return s;
}

/** Read-only operand positions of one issue point's body. */
struct BodyReads
{
    std::vector<std::pair<const Operand*, bool>> ops; // (operand, isDst)
    bool readsAccumViaMode = false;
};

BodyReads
bodyReads(const DecodedInst& di)
{
    BodyReads r;
    if (di.loneBranch)
        return r;
    const Instruction& b = di.body;
    const Opcode op = b.op;
    if (op == Opcode::kMov) {
        r.ops.push_back({&b.src, false});
    } else if (isCompare(op) || isAlu3(op)) {
        r.ops.push_back({&b.dst, true});
        r.ops.push_back({&b.src, false});
    } else if (isAlu2(op)) {
        // dst is read too, but rewriting it would change the
        // destination: only src is a *rewritable* read.
        r.ops.push_back({&b.src, false});
    }
    return r;
}

/** Reaching definitions as a fixpoint policy (fixpoint.hh). */
struct RdPolicy
{
    using State = RdState;
    static constexpr Direction kDirection = Direction::kForward;

    const AbsIntResult& ai;

    /** Reachable with every location wild: the entry state, and the
     *  sound state of a step-cap bail. */
    RdState
    boundary() const
    {
        RdState s;
        s.reachable = true;
        return s;
    }

    RdState top() const { return boundary(); }

    std::optional<RdState>
    edge(const CfgNode& from, const RdState& s, Addr to) const
    {
        if (!isCallReturnEdge(from.di, to))
            return std::nullopt;
        // Havocked return edge: reachability only.
        RdState wild;
        wild.reachable = s.reachable;
        return wild;
    }

    RdState
    join(const RdState& a, const RdState& b) const
    {
        return joinRd(a, b);
    }

    RdState
    transfer(const CfgNode& n, const RdState& in) const
    {
        if (!in.reachable)
            return RdState{};
        if (n.di.totalParcels <= 0)
            return in;
        return transferRd(n.di, in, n.di.pc, ai.inAt(n.di.pc));
    }
};

} // namespace

ReachDefsResult
computeReachDefs(const Cfg& cfg, const AbsIntResult& ai)
{
    ReachDefsResult r;
    std::map<Addr, RdState> out;
    static_cast<FixpointRun&>(r) =
        solveFixpoint(cfg, RdPolicy{ai}, r.in, out);
    if (!r.converged)
        return r; // everything wild everywhere, no chains

    // Def-use chains over the fixpoint.
    for (const auto& [pc, n] : cfg.nodes()) {
        const RdState& i = r.in.at(pc);
        if (!i.reachable || n.di.totalParcels <= 0)
            continue;
        const AbsState& pre = ai.inAt(pc);
        const auto use = [&](LocKey k) {
            for (const Addr d : i.defsOf(k)) {
                if (d != kWildDef)
                    r.defUses[d].insert(pc);
            }
        };
        for (const auto& [op, is_dst] : bodyReads(n.di).ops) {
            switch (op->mode) {
              case AddrMode::kAccum:
                use(kAccumLoc);
                break;
              case AddrMode::kStack:
              case AddrMode::kAbs:
                if (const auto a = operandAddress(*op, pre))
                    use(static_cast<LocKey>(*a));
                break;
              default:
                break;
            }
        }
        if (n.di.hasCondBranch()) {
            // The branch reads the flag *after* the body.
            if (!n.di.loneBranch && isCompare(n.di.body.op))
                r.defUses[pc].insert(pc);
            else
                use(kFlagLoc);
        }
    }
    return r;
}

std::vector<ConstUse>
findConstPropUses(const Cfg& cfg, const ReachDefsResult& rd,
                  const AbsIntResult& ai)
{
    std::vector<ConstUse> uses;
    for (const auto& [pc, n] : cfg.nodes()) {
        const auto iit = rd.in.find(pc);
        if (iit == rd.in.end() || !iit->second.reachable ||
            n.di.totalParcels <= 0) {
            continue;
        }
        const AbsState& pre = ai.inAt(pc);
        for (const auto& [op, is_dst] : bodyReads(n.di).ops) {
            if (op->mode != AddrMode::kStack &&
                op->mode != AddrMode::kAbs) {
                continue;
            }
            const auto a = operandAddress(*op, pre);
            if (!a)
                continue;
            const std::set<Addr> ds =
                iit->second.defsOf(static_cast<LocKey>(*a));
            if (ds.size() != 1 || *ds.begin() == kWildDef)
                continue;
            const Addr d = *ds.begin();
            if (!cfg.has(d))
                continue;
            const DecodedInst& ddi = cfg.node(d).di;
            if (ddi.loneBranch || ddi.body.op != Opcode::kMov ||
                ddi.body.src.mode != AddrMode::kImm) {
                continue;
            }
            const auto da = operandAddress(ddi.body.dst, ai.inAt(d));
            if (!da || *da != *a)
                continue;
            uses.push_back({pc, is_dst, ddi.body.src.value, d});
        }
    }
    return uses;
}

std::vector<RedundantCopy>
findRedundantCopies(const Cfg& cfg, const ReachDefsResult& rd,
                    const AbsIntResult& ai)
{
    std::vector<RedundantCopy> found;
    for (const auto& [pc, n] : cfg.nodes()) {
        const auto iit = rd.in.find(pc);
        if (iit == rd.in.end() || !iit->second.reachable ||
            n.di.totalParcels <= 0 || n.di.loneBranch ||
            n.di.body.op != Opcode::kMov) {
            continue;
        }
        const Instruction& b = n.di.body;
        const AbsState& pre = ai.inAt(pc);
        const auto a = operandAddress(b.dst, pre);
        const auto bb = operandAddress(b.src, pre);
        if (!a || !bb || *a == *bb)
            continue;

        // The reaching definition of the destination must be a copy
        // between the same two words...
        const std::set<Addr> ds =
            iit->second.defsOf(static_cast<LocKey>(*a));
        std::optional<Addr> cand;
        if (ds.size() == 1 && *ds.begin() != kWildDef)
            cand = *ds.begin();

        // ...and, to rule out a redefinition of the source anywhere
        // between, the copy must sit in the same single-entry chain:
        // walk unique predecessors, crossing only issue points that
        // disturb neither word. This covers every path because each
        // crossed node is its successor's only way in.
        Addr cur = pc;
        for (int depth = 0; depth < 64; ++depth) {
            const CfgNode& cn = cfg.node(cur);
            if (cn.preds.size() != 1)
                break;
            const Addr p = cn.preds[0];
            if (!cfg.has(p))
                break;
            const CfgNode& pn = cfg.node(p);
            const DecodedInst& pdi = pn.di;
            if (isCallReturnEdge(pdi, cur))
                break; // havocked return edge
            if (pdi.totalParcels <= 0)
                break;
            const Instruction& pb = pdi.body;
            const bool is_inst = !pdi.loneBranch;
            if (is_inst && pb.op == Opcode::kMov) {
                const AbsState& ppre = ai.inAt(p);
                const auto pd = operandAddress(pb.dst, ppre);
                const auto ps = operandAddress(pb.src, ppre);
                if (pd && ps &&
                    ((*pd == *a && *ps == *bb) ||
                     (*pd == *bb && *ps == *a))) {
                    if (!cand || *cand == p)
                        found.push_back({pc, p});
                    break;
                }
            }
            if (is_inst &&
                (pb.op == Opcode::kMov || isAlu2(pb.op) ||
                 pb.op == Opcode::kCall)) {
                // Does it disturb either word? Unresolved or indirect
                // stores might; resolved stores to other words do not.
                if (pb.op == Opcode::kCall)
                    break;
                const AbsState& ppre = ai.inAt(p);
                if (pb.dst.mode == AddrMode::kInd)
                    break;
                const auto pd = operandAddress(pb.dst, ppre);
                if (pb.dst.mode != AddrMode::kAccum &&
                    (!pd || *pd == *a || *pd == *bb)) {
                    break;
                }
            }
            cur = p;
        }
    }
    return found;
}

} // namespace crisp::analysis
