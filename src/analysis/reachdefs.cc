/**
 * @file
 * Forward reaching definitions (a policy over the shared fixpoint
 * solver), def-use chains, and the two provably-safe rewrite finders
 * built on them.
 */

#include "reachdefs.hh"

#include <algorithm>
#include <iterator>

namespace crisp::analysis
{

namespace
{

using DefPairs = FlatSet<std::pair<LocKey, Addr>>;

/** The end of the run of pairs from @p it on that define @p key. */
DefPairs::const_iterator
keyRunEnd(DefPairs::const_iterator it, DefPairs::const_iterator end,
          LocKey key)
{
    while (it != end && it->first == key)
        ++it;
    return it;
}

/** Number of distinct locations in @p defs. */
std::size_t
keyCount(const DefPairs& defs)
{
    std::size_t n = 0;
    for (auto it = defs.begin(); it != defs.end();
         it = keyRunEnd(it, defs.end(), it->first)) {
        ++n;
    }
    return n;
}

} // namespace

std::vector<Addr>
RdState::defsOf(LocKey key) const
{
    std::vector<Addr> sites;
    for (auto it = defs.lower_bound({key, 0});
         it != defs.end() && it->first == key; ++it) {
        sites.push_back(it->second);
    }
    if (sites.empty())
        sites.push_back(kWildDef);
    return sites;
}

void
RdState::define(LocKey key, Addr site)
{
    const auto first = defs.lower_bound({key, 0});
    const auto last = keyRunEnd(first, defs.end(), key);
    const bool new_key = first == last;
    defs.erase(first, last);
    defs.insert({key, site});
    if (new_key && defs.size() > kRdKeyCap && keyCount(defs) > kRdKeyCap)
        defs.clear();
}

void
RdState::havocMem()
{
    // Memory locations are the non-negative keys, after kAccumLoc and
    // kFlagLoc.
    defs.erase(defs.lower_bound({0, 0}), defs.end());
}

RdState
joinRd(const RdState& a, const RdState& b)
{
    if (!a.reachable)
        return b;
    if (!b.reachable)
        return a;
    RdState j;
    j.reachable = true;
    auto ia = a.defs.begin();
    auto ib = b.defs.begin();
    std::size_t keys = 0;
    while (ia != a.defs.end() || ib != b.defs.end()) {
        if (++keys > kRdKeyCap) {
            j.defs.clear();
            return j;
        }
        const LocKey k = ia == a.defs.end()   ? ib->first
                         : ib == b.defs.end() ? ia->first
                                              : std::min(ia->first, ib->first);
        const auto ka = keyRunEnd(ia, a.defs.end(), k);
        const auto kb = keyRunEnd(ib, b.defs.end(), k);
        std::set_union(ia, ka, ib, kb, std::back_inserter(j.defs));
        // Missing on one side means wild there. The wild site is the
        // largest, so it would already be the run's last pair.
        if ((ia == ka || ib == kb) &&
            std::prev(j.defs.end())->second != kWildDef) {
            j.defs.push_back({k, kWildDef});
        }
        ia = ka;
        ib = kb;
    }
    return j;
}

namespace
{

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
            s.havocMem();
            return;
        }
        const auto a = operandAddress(o, pre);
        if (a)
            s.define(static_cast<LocKey>(*a), pc);
        else
            s.havocMem();
    };

    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt ||
        op == Opcode::kEnter || op == Opcode::kLeave ||
        op == Opcode::kReturn) {
        // no tracked definition
    } else if (op == Opcode::kCall) {
        const auto sp = pre.sp.constant();
        if (sp) {
            s.define(static_cast<LocKey>(*sp) -
                         static_cast<LocKey>(kWordBytes),
                     pc);
        } else {
            s.havocMem();
        }
    } else if (op == Opcode::kMov) {
        if (b.dst.mode == AddrMode::kAccum)
            s.define(kAccumLoc, pc);
        else
            defMem(b.dst);
    } else if (isCompare(op)) {
        s.define(kFlagLoc, pc);
    } else if (isAlu3(op)) {
        s.define(kAccumLoc, pc);
    } else if (isAlu2(op)) {
        defMem(b.dst);
    }
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
            const std::vector<Addr> ds =
                iit->second.defsOf(static_cast<LocKey>(*a));
            if (ds.size() != 1 || ds.front() == kWildDef)
                continue;
            const Addr d = ds.front();
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
        const std::vector<Addr> ds =
            iit->second.defsOf(static_cast<LocKey>(*a));
        std::optional<Addr> cand;
        if (ds.size() == 1 && ds.front() != kWildDef)
            cand = ds.front();

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
