/**
 * @file
 * Backward liveness with absint-resolved memory operands, solved by the
 * shared fixpoint solver.
 */

#include "liveness.hh"

#include <algorithm>
#include <iterator>

namespace crisp::analysis
{

MemLive
joinMemLive(const MemLive& a, const MemLive& b)
{
    MemLive j;
    j.all = a.all || b.all;
    auto out = std::back_inserter(j.words);
    if (!j.all) {
        std::set_union(a.words.begin(), a.words.end(), b.words.begin(),
                       b.words.end(), out);
    } else if (a.all && b.all) {
        // Union of two co-sets: dead only where both sides agree.
        std::set_intersection(a.words.begin(), a.words.end(),
                              b.words.begin(), b.words.end(), out);
    } else {
        // co-set ∪ finite set: dead words minus the finite live words.
        const MemLive& co = a.all ? a : b;
        const MemLive& fin = a.all ? b : a;
        std::set_difference(co.words.begin(), co.words.end(),
                            fin.words.begin(), fin.words.end(), out);
    }
    return j;
}

namespace
{

LiveSet
joinLive(const LiveSet& a, const LiveSet& b)
{
    LiveSet j;
    j.accum = a.accum || b.accum;
    j.flag = a.flag || b.flag;
    j.mem = joinMemLive(a.mem, b.mem);
    return j;
}

/** All-live: the sound degradation when the step cap trips. */
LiveSet
allLive()
{
    LiveSet s;
    s.accum = true;
    s.flag = true;
    s.mem.genAll();
    return s;
}

/** One node's backward transfer, parameterized on absint SP facts. */
struct Xfer
{
    LiveSet s;
    const AbsState& pre; // absint IN state: operands evaluate against it

    void
    genRead(const Operand& o)
    {
        switch (o.mode) {
          case AddrMode::kImm:
          case AddrMode::kNone:
            return;
          case AddrMode::kAccum:
            s.accum = true;
            return;
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            const auto a = operandAddress(o, pre);
            if (a)
                s.mem.gen(*a);
            else
                s.mem.genAll();
            return;
          }
          case AddrMode::kInd:
            // Reads the pointer slot and an unknown target word.
            s.mem.genAll();
            return;
        }
    }

    void
    killWrite(const Operand& o)
    {
        switch (o.mode) {
          case AddrMode::kAccum:
            s.accum = false;
            return;
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            // A kill must be definite: unresolved writes kill nothing.
            const auto a = operandAddress(o, pre);
            if (a)
                s.mem.kill(*a);
            return;
          }
          case AddrMode::kInd:
            // Target unknown (kills nothing), but the pointer slot is
            // read to form the address.
            genRead(Operand::stack(o.value));
            return;
          case AddrMode::kImm:
          case AddrMode::kNone:
            return;
        }
    }
};

/** Live-in of @p di given live-out @p out and absint pre-state. */
LiveSet
transferBack(const DecodedInst& di, const LiveSet& out,
             const AbsState& pre)
{
    Xfer x{out, pre};

    // Control part first (it executes after the body).
    if (di.hasCondBranch())
        x.s.flag = true;
    if (di.ctl == Ctl::kIndirect)
        x.s.mem.genAll(); // jump-table word read through a pointer

    const Instruction& b = di.body;
    const Opcode op = b.op;
    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt ||
        op == Opcode::kEnter || op == Opcode::kLeave) {
        // no data effect
    } else if (op == Opcode::kReturn) {
        // Pops the return word at sp + frameWords * 4.
        x.genRead(Operand::stack(b.dst.value));
    } else if (op == Opcode::kCall) {
        // Pushes the return word at sp - 4: a definite write when
        // resolved, so the slot's prior value dies here.
        const auto sp = pre.sp.constant();
        if (sp)
            x.s.mem.kill(static_cast<Addr>(*sp) - kWordBytes);
    } else if (op == Opcode::kMov) {
        x.killWrite(b.dst);
        x.genRead(b.src);
    } else if (isCompare(op)) {
        x.s.flag = false;
        x.genRead(b.dst);
        x.genRead(b.src);
    } else if (isAlu3(op)) {
        x.s.accum = false;
        x.genRead(b.dst);
        x.genRead(b.src);
    } else if (isAlu2(op)) {
        x.killWrite(b.dst);
        x.genRead(b.dst);
        x.genRead(b.src);
    }
    return x.s;
}

/** Backward liveness as a fixpoint policy (fixpoint.hh). */
struct LivePolicy
{
    using State = LiveSet;
    static constexpr Direction kDirection = Direction::kBackward;

    const AbsIntResult& ai;
    LiveSet exit;

    /** Abstractly-unreachable nodes (SCCP-pruned arms) never
     *  execute; they contribute no liveness and are left empty. */
    bool
    executes(const CfgNode& n) const
    {
        return ai.inAt(n.di.pc).reachable;
    }

    LiveSet boundary() const { return exit; }
    LiveSet top() const { return allLive(); }

    LiveSet
    join(const LiveSet& a, const LiveSet& b) const
    {
        return joinLive(a, b);
    }

    LiveSet
    transfer(const CfgNode& n, const LiveSet& out) const
    {
        if (n.di.totalParcels <= 0)
            return out; // decode-error placeholder
        return transferBack(n.di, out, ai.inAt(n.di.pc));
    }
};

} // namespace

const LiveSet&
LivenessResult::outAt(Addr pc) const
{
    static const LiveSet all = allLive();
    const auto it = out.find(pc);
    return it == out.end() ? all : it->second;
}

LivenessResult
computeLiveness(const Cfg& cfg, const AbsIntResult& ai)
{
    LivenessResult r;
    const Program& prog = cfg.program();

    // Observable at exit: the accumulator and every data-segment word.
    // Stack slots are frame-local by the observability contract shared
    // with tv.cc; text words are excluded from *dead-store reporting*
    // below instead of being carried in every set.
    LiveSet exit;
    exit.accum = true;
    for (Addr a = prog.dataBase;
         a < prog.dataBase + static_cast<Addr>(prog.data.size());
         a += kWordBytes) {
        exit.mem.gen(a);
    }
    // A step-cap bail leaves everything live, so nothing is dead below.
    static_cast<FixpointRun&>(r) =
        solveFixpoint(cfg, LivePolicy{ai, std::move(exit)}, r.in, r.out);

    // Dead-definition report: reachable nodes whose only effect is
    // provably unobservable. Text-segment stores are never reported
    // (self-modifying code is observable through fetch).
    for (const auto& [pc, n] : cfg.nodes()) {
        if (!ai.inAt(pc).reachable || n.di.totalParcels <= 0 ||
            n.di.loneBranch || n.di.ctl == Ctl::kIndirect) {
            continue;
        }
        const Instruction& b = n.di.body;
        const LiveSet& lo = r.out.at(pc);
        if (isCompare(b.op)) {
            // A folded branch in this same entry reads the flag the
            // compare just set; live-out alone would miss that.
            if (!lo.flag && !n.di.hasCondBranch())
                r.dead.push_back({pc, DeadKind::kCompare, 0});
            continue;
        }
        const bool to_accum =
            isAlu3(b.op) ||
            (b.op == Opcode::kMov && b.dst.mode == AddrMode::kAccum);
        if (to_accum) {
            if (!lo.accum)
                r.dead.push_back({pc, DeadKind::kAccumDef, 0});
            continue;
        }
        const bool to_mem =
            (b.op == Opcode::kMov || isAlu2(b.op)) &&
            (b.dst.mode == AddrMode::kStack ||
             b.dst.mode == AddrMode::kAbs);
        if (!to_mem)
            continue;
        const auto a = operandAddress(b.dst, ai.inAt(pc));
        if (a && !prog.inText(*a) && !lo.mem.isLive(*a))
            r.dead.push_back({pc, DeadKind::kMemStore, *a});
    }
    return r;
}

} // namespace crisp::analysis
