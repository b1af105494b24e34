/**
 * @file
 * Value-set fixpoint over the issue-point CFG and per-site target
 * extraction: SCCP's policy over a state that carries exact finite
 * sets next to the intervals, solved by the shared fixpoint solver.
 */

#include "targets.hh"

#include <algorithm>
#include <iterator>
#include <optional>

namespace crisp::analysis
{

ValueSet
joinValueSet(const ValueSet& a, const ValueSet& b)
{
    if (a.top || b.top)
        return ValueSet::topSet();
    ValueSet r{false, {}};
    std::set_union(a.vals.begin(), a.vals.end(), b.vals.begin(),
                   b.vals.end(), std::back_inserter(r.vals));
    if (r.vals.size() > kValueSetCap)
        return ValueSet::topSet();
    return r;
}

namespace
{

/** Word contents of the freshly loaded memory image (text parcels are
 *  little-endian bytes, data verbatim, everything else zero). */
class InitialImage
{
  public:
    explicit InitialImage(const Program& prog) : prog_(prog) {}

    std::optional<std::int32_t>
    word(Addr a) const
    {
        if (a + kWordBytes > prog_.memBytes || a + kWordBytes < a)
            return std::nullopt;
        std::uint32_t v = 0;
        for (Addr i = 0; i < kWordBytes; ++i)
            v |= static_cast<std::uint32_t>(byte(a + i)) << (8 * i);
        return static_cast<std::int32_t>(v);
    }

  private:
    std::uint8_t
    byte(Addr a) const
    {
        if (a >= prog_.dataBase &&
            a - prog_.dataBase < prog_.data.size()) {
            return prog_.data[a - prog_.dataBase];
        }
        if (a >= prog_.textBase && a < prog_.textEnd()) {
            const Addr off = a - prog_.textBase;
            const Parcel p = prog_.text[off / kParcelBytes];
            return off % kParcelBytes != 0
                       ? static_cast<std::uint8_t>(p >> 8)
                       : static_cast<std::uint8_t>(p);
        }
        return 0;
    }

    const Program& prog_;
};

/** Merged byte ranges reachable stores may write. */
class MayWrite
{
  public:
    void addAll() { all_ = true; }

    /** Record a possible store anywhere in [@p lo, @p hi). */
    void
    add(std::int64_t lo, std::int64_t hi, Addr mem_bytes)
    {
        if (all_)
            return;
        lo = std::max<std::int64_t>(lo, 0);
        hi = std::min<std::int64_t>(hi, mem_bytes);
        if (lo >= hi)
            return;
        ranges_.emplace_back(static_cast<Addr>(lo),
                             static_cast<Addr>(hi));
    }

    /** Merge overlapping ranges; degrade to all-mutable past the cap. */
    void
    seal()
    {
        if (all_)
            return;
        std::sort(ranges_.begin(), ranges_.end());
        std::vector<std::pair<Addr, Addr>> merged;
        for (const auto& [lo, hi] : ranges_) {
            if (!merged.empty() && lo <= merged.back().second)
                merged.back().second = std::max(merged.back().second, hi);
            else
                merged.emplace_back(lo, hi);
        }
        ranges_ = std::move(merged);
        if (ranges_.size() > kRangeCap) {
            all_ = true;
            ranges_.clear();
        }
    }

    bool all() const { return all_; }
    const std::vector<std::pair<Addr, Addr>>& ranges() const
    {
        return ranges_;
    }

    /** May any store hit [@p lo, @p hi)? */
    bool
    overlaps(Addr lo, Addr hi) const
    {
        if (all_)
            return true;
        auto it = std::upper_bound(
            ranges_.begin(), ranges_.end(), lo,
            [](Addr a, const std::pair<Addr, Addr>& r) {
                return a < r.second;
            });
        return it != ranges_.end() && it->first < hi;
    }

  private:
    static constexpr std::size_t kRangeCap = 256;
    std::vector<std::pair<Addr, Addr>> ranges_;
    bool all_ = false;
};

/** Add everything one executed body may store. @p in is the state the
 *  body runs in, @p sp_after the post-entry SP for a call push. */
void
addBodyWrites(bool lone_branch, const Instruction& b, const AbsState& in,
              Addr mem_bytes, MayWrite& mw)
{
    const Opcode op = b.op;
    if (lone_branch || !(op == Opcode::kMov || isAlu2(op)))
        return;
    switch (b.dst.mode) {
      case AddrMode::kAbs: {
        const auto a = static_cast<std::int64_t>(
            static_cast<Addr>(b.dst.value));
        mw.add(a, a + kWordBytes, mem_bytes);
        return;
      }
      case AddrMode::kStack:
        mw.add(in.sp.lo + std::int64_t{b.dst.value} * kWordBytes,
               in.sp.hi + std::int64_t{b.dst.value} * kWordBytes +
                   kWordBytes,
               mem_bytes);
        return;
      case AddrMode::kInd: {
        const auto slot = operandAddress(Operand::stack(b.dst.value), in);
        if (!slot) {
            mw.addAll();
            return;
        }
        const auto it = in.mem.find(*slot);
        if (it == in.mem.end() || it->second.lo < 0) {
            // Untracked or possibly-negative pointer: as an unsigned
            // address it may wrap anywhere.
            mw.addAll();
            return;
        }
        mw.add(it->second.lo, it->second.hi + kWordBytes, mem_bytes);
        return;
      }
      default:
        return; // accumulator/immediate: no memory write
    }
}

/** One abstract state of the value-set domain. */
struct VsState
{
    AbsState base;
    /** Exact finite sets for tracked words, ascending by address; an
     *  absent word holds top. */
    FlatMap<Addr, ValueSet> sets;

    static VsState
    anyState()
    {
        return {AbsState::anyState(), {}};
    }

    bool operator==(const VsState&) const = default;
};

VsState
joinVs(const VsState& a, const VsState& b)
{
    if (!a.base.reachable)
        return b;
    if (!b.base.reachable)
        return a;
    VsState j;
    j.base = joinState(a.base, b.base);
    // A set absent on either side is top there: only common ones stay.
    forCommonKeys(a.sets, b.sets,
                  [&](Addr addr, const ValueSet& va, const ValueSet& vb) {
                      ValueSet u = joinValueSet(va, vb);
                      if (!u.top)
                          j.sets.emplace_back(addr, std::move(u));
                  });
    return j;
}

VsState
widenVs(const VsState& prev, const VsState& next, int& widenings)
{
    if (!next.base.reachable)
        return prev;
    if (!prev.base.reachable)
        return next;
    const auto grew = [](const ValueSet& a, const ValueSet& b) {
        return !std::includes(a.vals.begin(), a.vals.end(),
                              b.vals.begin(), b.vals.end());
    };
    return {widenAbsState(prev.base, next.base, widenings),
            widenFacts(prev.sets, next.sets, grew, widenings)};
}

/** Element-wise ALU over two finite sets; top when anything blows up. */
ValueSet
evalSetAlu(Opcode op, const ValueSet& d, const ValueSet& s)
{
    if (d.top || s.top ||
        d.vals.size() * s.vals.size() > kValueSetCap * kValueSetCap)
        return ValueSet::topSet();
    ValueSet r{false, {}};
    for (const std::int32_t dv : d.vals) {
        for (const std::int32_t sv : s.vals) {
            r.vals.insert(evalAlu(op, dv, sv));
            if (r.vals.size() > kValueSetCap)
                return ValueSet::topSet();
        }
    }
    return r;
}

/** Value reads over one VsState plus the immutable initial image. */
class VsMachine
{
  public:
    VsMachine(const VsState& st, const InitialImage& img,
              const MayWrite& mw)
        : st_(st), img_(img), mw_(mw)
    {}

    bool
    immutable(Addr a) const
    {
        return !mw_.all() && !mw_.overlaps(a, a + kWordBytes);
    }

    /** Every value the word at @p a may hold. */
    ValueSet
    wordAt(Addr a) const
    {
        const auto it = st_.sets.find(a);
        if (it != st_.sets.end())
            return it->second;
        const auto mi = st_.base.mem.find(a);
        if (mi != st_.base.mem.end()) {
            if (const auto c = mi->second.constant())
                return ValueSet::of(*c);
        }
        if (immutable(a)) {
            if (const auto w = img_.word(a))
                return ValueSet::of(*w);
        }
        return ValueSet::topSet();
    }

    /** Every value operand @p o may read. */
    ValueSet
    readSet(const Operand& o) const
    {
        switch (o.mode) {
          case AddrMode::kImm:
            return ValueSet::of(o.value);
          case AddrMode::kNone:
            return ValueSet::of(0);
          case AddrMode::kAccum:
            if (const auto c = st_.base.accum.constant())
                return ValueSet::of(*c);
            return ValueSet::topSet();
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            const auto a = operandAddress(o, st_.base);
            return a ? wordAt(*a) : ValueSet::topSet();
          }
          case AddrMode::kInd: {
            const auto slot =
                operandAddress(Operand::stack(o.value), st_.base);
            if (!slot)
                return ValueSet::topSet();
            ValueSet ptrs = wordAt(*slot);
            if (ptrs.top)
                ptrs = enumeratePointers(*slot);
            if (ptrs.top)
                return ValueSet::topSet();
            ValueSet r{false, {}};
            for (const std::int32_t p : ptrs.vals) {
                const ValueSet w =
                    wordAt(static_cast<Addr>(p));
                if (w.top)
                    return ValueSet::topSet();
                r = joinValueSet(r, w);
                if (r.top)
                    return r;
            }
            return r;
        }
          default:
            return ValueSet::topSet();
        }
    }

  private:
    /** Fallback for a pointer tracked only as an interval: enumerate
     *  every byte address in a small span (read32 never faults on
     *  misalignment, so unaligned overlap words must be included). */
    ValueSet
    enumeratePointers(Addr slot) const
    {
        const auto mi = st_.base.mem.find(slot);
        if (mi == st_.base.mem.end())
            return ValueSet::topSet();
        const Interval& p = mi->second;
        if (p.lo < 0 ||
            p.hi - p.lo >= static_cast<std::int64_t>(kValueSetCap))
            return ValueSet::topSet();
        ValueSet r{false, {}};
        for (std::int64_t a = p.lo; a <= p.hi; ++a)
            r.vals.insert(static_cast<std::int32_t>(a));
        return r;
    }

    const VsState& st_;
    const InitialImage& img_;
    const MayWrite& mw_;
};

/** Transfer: absTransfer on the interval layer, a mirrored store
 *  discipline on the set layer. */
VsState
vsTransfer(const DecodedInst& di, const VsState& in,
           const InitialImage& img, const MayWrite& mw)
{
    VsState out;
    out.base = absTransfer(di, in.base);
    out.sets = in.sets;
    const VsMachine m(in, img, mw);

    const Instruction& b = di.body;
    const Opcode op = b.op;

    const auto store = [&](const Operand& dst, const ValueSet& v) {
        if (dst.mode == AddrMode::kAccum)
            return; // interval layer tracks the accumulator
        const auto a = operandAddress(dst, in.base);
        if (!a) {
            // Store through an unprovable address: like absTransfer,
            // assume it may clobber any tracked word.
            out.sets.clear();
            return;
        }
        if (v.top) {
            out.sets.erase(*a);
        } else {
            out.sets[*a] = v;
            if (out.sets.size() > kValueSetMemCap)
                out.sets.clear();
        }
    };

    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt ||
        op == Opcode::kEnter || op == Opcode::kLeave ||
        op == Opcode::kReturn || isCompare(op) || isAlu3(op)) {
        // No memory write (SP moves, flag and accumulator live in the
        // interval layer).
    } else if (op == Opcode::kMov) {
        store(b.dst, m.readSet(b.src));
    } else if (isAlu2(op)) {
        store(b.dst, evalSetAlu(op, m.readSet(b.dst), m.readSet(b.src)));
    }

    if (di.ctl == Ctl::kCall) {
        // The push lands at the post-push SP absTransfer computed.
        if (const auto spc = out.base.sp.constant()) {
            out.sets[static_cast<Addr>(*spc)] = ValueSet::of(
                static_cast<std::int32_t>(di.callRetPc));
            if (out.sets.size() > kValueSetMemCap)
                out.sets.clear();
        } else {
            out.sets.clear();
        }
    }
    return out;
}

/** Interval implied for x by (x REL c) == flag; lo > hi when the
 *  combination is infeasible; nullopt when the relation says nothing
 *  an interval can express. */
std::optional<Interval>
relImplied(Opcode op, std::int32_t c, bool flag, const Interval& x)
{
    const std::int64_t cc = c;
    Interval r = x;
    switch (op) {
      case Opcode::kCmpEq:
        if (flag)
            return Interval{std::max(r.lo, cc), std::min(r.hi, cc)};
        return std::nullopt;
      case Opcode::kCmpNe:
        if (!flag)
            return Interval{std::max(r.lo, cc), std::min(r.hi, cc)};
        return std::nullopt;
      case Opcode::kCmpLt:
        if (flag)
            r.hi = std::min(r.hi, cc - 1);
        else
            r.lo = std::max(r.lo, cc);
        return r;
      case Opcode::kCmpLe:
        if (flag)
            r.hi = std::min(r.hi, cc);
        else
            r.lo = std::max(r.lo, cc + 1);
        return r;
      case Opcode::kCmpGt:
        if (flag)
            r.lo = std::max(r.lo, cc + 1);
        else
            r.hi = std::min(r.hi, cc);
        return r;
      case Opcode::kCmpGe:
        if (flag)
            r.lo = std::max(r.lo, cc);
        else
            r.hi = std::min(r.hi, cc - 1);
        return r;
      case Opcode::kCmpLtU:
      case Opcode::kCmpGeU: {
        if (cc < 0)
            return std::nullopt;
        // Unsigned compare against a non-negative immediate: being
        // unsigned-below c means x lies in [0, c-1] as a signed word
        // (negative words are unsigned-above any such c).
        const bool below =
            (op == Opcode::kCmpLtU) == flag; // x <u c held?
        if (below) {
            r.lo = std::max<std::int64_t>(r.lo, 0);
            r.hi = std::min(r.hi, cc - 1);
            return r;
        }
        if (r.lo >= 0) {
            r.lo = std::max(r.lo, cc);
            return r;
        }
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
}

/** Does the body of @p di possibly write the word at @p a? */
bool
bodyMayWrite(const DecodedInst& di, const AbsState& in, Addr a)
{
    MayWrite mw;
    addBodyWrites(di.loneBranch, di.body, in, ~Addr{0} - kWordBytes,
                  mw);
    if (di.ctl == Ctl::kCall) {
        // The push lands at the post-push SP (the body may itself have
        // moved SP); absTransfer knows both effects.
        const AbsState out = absTransfer(di, in);
        mw.add(out.sp.lo, out.sp.hi + kWordBytes,
               ~Addr{0} - kWordBytes);
    }
    mw.seal();
    return mw.overlaps(a, a + kWordBytes);
}

/** The compare feeding the flag at branch node @p pn, found by walking
 *  back through single-predecessor spread code. Returns the compare's
 *  node and the chain of nodes whose bodies execute after it
 *  (including @p pn itself). */
struct FlagSource
{
    const CfgNode* cmpNode = nullptr;
    std::vector<const CfgNode*> between;
};

std::optional<FlagSource>
findFlagSource(const Cfg& cfg, const CfgNode& pn)
{
    FlagSource fs;
    const CfgNode* cur = &pn;
    for (int depth = 0; depth < 8; ++depth) {
        if (cur->di.writesCc && !cur->di.loneBranch) {
            if (!isCompare(cur->di.body.op))
                return std::nullopt;
            fs.cmpNode = cur;
            return fs;
        }
        fs.between.push_back(cur);
        if (cur->preds.size() != 1)
            return std::nullopt;
        const CfgNode& p = cfg.node(cur->preds.front());
        if (isCallReturnEdge(p.di, cur->di.pc))
            return std::nullopt; // callee body havocs the flag
        cur = &p;
    }
    return std::nullopt;
}

/**
 * The value-set fixpoint policy: SCCP's edge rule plus guard
 * refinement, which reads the solver's current in-states.
 */
struct VsPolicy
{
    using State = VsState;
    static constexpr Direction kDirection = Direction::kForward;

    const Cfg& cfg;
    const InitialImage& img;
    const MayWrite& mw;
    const std::map<Addr, VsState>& in;
    AbsPolicy abs{entryState(cfg.program()), /*conditional=*/true};

    VsState boundary() const { return {abs.entry, {}}; }
    VsState top() const { return VsState::anyState(); }

    /** State flowing from predecessor @p pn (post-state @p po) into
     *  @p pc: sccp's edge rule plus guard refinement. The callee body
     *  behind a call -> return-site edge havocs every set too. */
    std::optional<VsState>
    edge(const CfgNode& pn, const VsState& po, Addr pc) const
    {
        std::optional<AbsState> base = abs.edge(pn, po.base, pc);
        if (!base)
            return std::nullopt;
        VsState r{std::move(*base), {}};
        if (!r.base.reachable || isCallReturnEdge(pn.di, pc))
            return r;
        r.sets = po.sets;
        if (!refineCompareOperand(pn, *edgeFlag(pn.di, pc), r))
            return VsState{};
        return r;
    }

    VsState
    join(const VsState& a, const VsState& b) const
    {
        return joinVs(a, b);
    }

    VsState
    widen(const VsState& prev, const VsState& next, int& widenings) const
    {
        return widenVs(prev, next, widenings);
    }

    VsState
    transfer(const CfgNode& n, const VsState& i) const
    {
        if (!i.base.reachable)
            return VsState{};
        if (n.di.totalParcels <= 0)
            return i;
        return vsTransfer(n.di, i, img, mw);
    }

    bool refineCompareOperand(const CfgNode& pn, bool edge_flag,
                              VsState& r) const;
};

/**
 * Guard refinement: intersect the location the flag-setting compare
 * tested with the relation the traversed edge implies. Returns false
 * when the refinement proves the edge infeasible.
 */
bool
VsPolicy::refineCompareOperand(const CfgNode& pn, bool edge_flag,
                               VsState& r) const
{
    const auto fs = findFlagSource(cfg, pn);
    if (!fs)
        return true;
    const Instruction& cb = fs->cmpNode->di.body;
    if (cb.src.mode != AddrMode::kImm)
        return true;
    const std::int32_t c = cb.src.value;
    const VsState& cmp_in = in.at(fs->cmpNode->di.pc);
    if (!cmp_in.base.reachable)
        return true;

    if (cb.dst.mode == AddrMode::kAccum) {
        // The accumulator survives the gap only if nothing in between
        // writes it (mov/alu2 to accum or any alu3).
        for (const CfgNode* w : fs->between) {
            const Instruction& b = w->di.body;
            if (w->di.loneBranch)
                continue;
            if (isAlu3(b.op) ||
                ((b.op == Opcode::kMov || isAlu2(b.op)) &&
                 b.dst.mode == AddrMode::kAccum))
                return true;
        }
        const auto imp =
            relImplied(cb.op, c, edge_flag, r.base.accum);
        if (!imp)
            return true;
        if (imp->lo > imp->hi)
            return false;
        r.base.accum = *imp;
        return true;
    }

    const auto a = operandAddress(cb.dst, cmp_in.base);
    if (!a)
        return true;
    // The compared word must survive every body between the compare
    // and the branch (spread code moved there is independent, but
    // prove it).
    for (const CfgNode* w : fs->between) {
        if (bodyMayWrite(w->di, in.at(w->di.pc).base, *a))
            return true;
    }

    const auto mi = r.base.mem.find(*a);
    const Interval cur =
        mi != r.base.mem.end() ? mi->second : Interval::top();
    const auto imp = relImplied(cb.op, c, edge_flag, cur);
    if (!imp)
        return true;
    if (imp->lo > imp->hi)
        return false;
    if (!imp->isTop())
        r.base.mem[*a] = *imp;

    const auto si = r.sets.find(*a);
    if (si != r.sets.end()) {
        // Exact filter: keep only values satisfying the relation.
        ValueSet f{false, {}};
        for (const std::int32_t v : si->second.vals) {
            if (evalCompare(cb.op, v, c) == edge_flag)
                f.vals.insert(v);
        }
        if (f.vals.empty())
            return false;
        si->second = std::move(f);
    } else if (imp->hi - imp->lo <
               static_cast<std::int64_t>(kValueSetCap)) {
        // Materialize the refined window as an exact set so the
        // table-address arithmetic downstream stays exact.
        ValueSet f{false, {}};
        for (std::int64_t v = imp->lo; v <= imp->hi; ++v)
            f.vals.insert(static_cast<std::int32_t>(v));
        r.sets[*a] = std::move(f);
        if (r.sets.size() > kValueSetMemCap)
            r.sets.clear();
    }
    return true;
}

} // namespace

const SiteTargets*
TargetsResult::siteAt(Addr pc) const
{
    const auto it = sites.find(pc);
    return it == sites.end() ? nullptr : &it->second;
}

TargetsResult
analyzeTargets(const Cfg& cfg, const CallGraph& cg,
               const SccpResult& sccp_result, const AbsIntOptions& opts)
{
    TargetsResult r;
    const Program& prog = cfg.program();
    const InitialImage img(prog);

    // Phase A: bound every store reachable per the sccp fixpoint. The
    // value phase below is at least as precise (refinement only prunes
    // paths), so this may-write set over-approximates its world too.
    MayWrite mw;
    for (const auto& [pc, n] : cfg.nodes()) {
        const AbsState& in = sccp_result.state.in.at(pc);
        if (!in.reachable)
            continue;
        if (n.di.totalParcels <= 0) {
            // Decode-error node: the interpreter executes the raw
            // instruction; model its stores from the raw view. A fetch
            // error faults before any store.
            const DecodeResult raw = prog.tryFetch(pc);
            if (raw.error == nullptr) {
                addBodyWrites(false, raw.inst, in, prog.memBytes, mw);
                if (raw.inst.op == Opcode::kCall) {
                    mw.add(in.sp.lo - kWordBytes, in.sp.hi,
                           prog.memBytes);
                }
            }
            continue;
        }
        addBodyWrites(n.di.loneBranch, n.di.body, in, prog.memBytes,
                      mw);
        if (n.di.ctl == Ctl::kCall) {
            const AbsState& out = sccp_result.state.out.at(pc);
            mw.add(out.sp.lo, out.sp.hi + kWordBytes, prog.memBytes);
        }
    }
    mw.seal();
    r.allMutable = mw.all();
    r.mayWrite = mw.ranges();

    // Phase B: the value-set fixpoint.
    std::map<Addr, VsState> vin;
    std::map<Addr, VsState> vout;
    static_cast<FixpointRun&>(r) =
        solveFixpoint(cfg, VsPolicy{cfg, img, mw, vin}, vin, vout,
                      opts.stepCap);

    // Extraction: per reachable indirect/return site, read the target
    // word's value set out of the fixpoint. A step-cap bail leaves
    // every node reachable and every site with its ⊤ fallback set.
    for (const auto& [pc, n] : cfg.nodes()) {
        const DecodedInst& di = n.di;
        const bool jump = di.ctl == Ctl::kIndirect;
        if ((!jump && di.ctl != Ctl::kRet) || !vin.at(pc).base.reachable)
            continue;

        SiteTargets s;
        s.pc = pc;
        s.branchPc = jump ? di.branchPc : pc;
        s.kind = jump ? TargetSiteKind::kIndirectJump
                      : TargetSiteKind::kReturn;
        ValueSet v = ValueSet::topSet();
        if (r.converged && jump) {
            // The branch reads its target word at retirement, after
            // the folded body ran: use the OUT state.
            const VsMachine m(vout.at(pc), img, mw);
            std::optional<Addr> slot;
            if (di.bmode == BranchMode::kIndAbs) {
                slot = di.spec;
            } else if (di.bmode == BranchMode::kIndSp) {
                slot = operandAddress(
                    Operand::stack(static_cast<std::int32_t>(di.spec)),
                    vout.at(pc).base);
            }
            if (slot)
                v = m.wordAt(*slot);
        } else if (r.converged) {
            // The pop reads the word above the deallocated frame:
            // in-SP + frame words (returns are never folded).
            const VsMachine m(vin.at(pc), img, mw);
            if (const auto slot = operandAddress(
                    Operand::stack(di.body.dst.value), vin.at(pc).base))
                v = m.wordAt(*slot);
        }

        if (!v.top) {
            s.resolved = true;
            s.enforceable = true;
            for (const std::int32_t t : v.vals) {
                const Addr ta = static_cast<Addr>(t);
                s.targets.insert(ta);
                if (!prog.inText(ta) || ta % kParcelBytes != 0)
                    ++s.invalidTargets;
            }
        } else if (jump) {
            s.targets = cfg.indirectTargets();
        } else {
            s.targets = cg.returnSitesOf(pc);
            s.fromReturnMatch = true;
        }
        r.sites.emplace(pc, std::move(s));
    }
    return r;
}

IndirectHints
hintsFromTargets(const TargetsResult& targets)
{
    // Aggregate per branch address: several issue points may cover one
    // branch (mixed fold classes), and a hint must describe them all.
    struct Agg
    {
        std::set<Addr> all;
        bool ok = true;
    };
    std::map<Addr, Agg> by_branch;
    for (const auto& [pc, s] : targets.sites) {
        if (s.kind != TargetSiteKind::kIndirectJump)
            continue;
        Agg& a = by_branch[s.branchPc];
        a.ok = a.ok && s.enforceable && s.resolved &&
               s.invalidTargets == 0 && !s.targets.empty();
        a.all.insert(s.targets.begin(), s.targets.end());
    }
    IndirectHints hints;
    for (const auto& [bpc, a] : by_branch) {
        if (!a.ok)
            continue;
        hints.targets.emplace(
            bpc, std::vector<Addr>(a.all.begin(), a.all.end()));
    }
    return hints;
}

} // namespace crisp::analysis
