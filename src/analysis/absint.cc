/**
 * @file
 * Abstract interpreter over the issue-point CFG: the interval lattice,
 * its transfer function and its fixpoint policy.
 */

#include "absint.hh"

namespace crisp::analysis
{

namespace
{

/** Shift an SP interval by a known byte delta; wrap risk means top. */
Interval
spAdd(const Interval& sp, std::int64_t delta)
{
    const Interval r{sp.lo + delta, sp.hi + delta};
    if (r.lo < kSpTop.lo || r.hi > kSpTop.hi)
        return kSpTop;
    return r;
}

/** Tracked-memory size cap; past it the map degrades to top. */
constexpr std::size_t kMemCap = 64;

bool
intervalGrew(const Interval& prev, const Interval& next)
{
    return next.lo < prev.lo || next.hi > prev.hi;
}

} // namespace

AbsState
widenAbsState(const AbsState& prev, const AbsState& next, int& widenings)
{
    if (!next.reachable)
        return prev;
    if (!prev.reachable)
        return next;
    AbsState w = prev;
    w.flag.mayTrue = prev.flag.mayTrue || next.flag.mayTrue;
    w.flag.mayFalse = prev.flag.mayFalse || next.flag.mayFalse;
    if (intervalGrew(prev.accum, next.accum)) {
        w.accum = widenInterval(prev.accum, next.accum);
        ++widenings;
    }
    if (intervalGrew(prev.sp, next.sp)) {
        w.sp = kSpTop;
        ++widenings;
    }
    w.mem = widenFacts(prev.mem, next.mem, intervalGrew, widenings);
    return w;
}

AbsState
entryState(const Program& prog)
{
    AbsState s;
    s.reachable = true;
    s.accum = Interval::of(0);
    const std::int64_t sp0 =
        (prog.memBytes - kWordBytes) & ~(kWordBytes - 1);
    s.sp = {sp0, sp0};
    s.flag = FlagVal::known(false);
    return s;
}

std::optional<Addr>
operandAddress(const Operand& o, const AbsState& s)
{
    switch (o.mode) {
      case AddrMode::kStack: {
        const auto sp = s.sp.constant();
        if (!sp)
            return std::nullopt;
        return static_cast<Addr>(*sp) +
               static_cast<Addr>(o.value) * kWordBytes;
      }
      case AddrMode::kAbs:
        return static_cast<Addr>(o.value);
      default:
        return std::nullopt;
    }
}

std::optional<bool>
edgeFlag(const DecodedInst& di, Addr to)
{
    if (!di.hasCondBranch() || di.takenPc == di.seqPc)
        return std::nullopt;
    if (to == di.takenPc)
        return di.ctl == Ctl::kCondT;
    if (to == di.seqPc)
        return di.ctl == Ctl::kCondF;
    return std::nullopt;
}

namespace
{

/** One abstract machine the transfer function mutates in place. */
struct Machine
{
    AbsState st;

    Interval
    memAt(Addr a) const
    {
        const auto it = st.mem.find(a);
        return it == st.mem.end() ? Interval::top() : it->second;
    }

    void
    memSet(Addr a, const Interval& v)
    {
        if (v.isTop()) {
            st.mem.erase(a);
            return;
        }
        st.mem[a] = v;
        if (st.mem.size() > kMemCap)
            st.mem.clear();
    }

    Interval
    read(const Operand& o) const
    {
        switch (o.mode) {
          case AddrMode::kImm:
            return Interval::of(o.value);
          case AddrMode::kAccum:
            return st.accum;
          case AddrMode::kNone:
            return Interval::of(0);
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            const auto a = operandAddress(o, st);
            return a ? memAt(*a) : Interval::top();
          }
          case AddrMode::kInd:
            return Interval::top();
        }
        return Interval::top();
    }

    void
    write(const Operand& o, const Interval& v)
    {
        switch (o.mode) {
          case AddrMode::kAccum:
            st.accum = v;
            return;
          case AddrMode::kStack:
          case AddrMode::kAbs: {
            const auto a = operandAddress(o, st);
            if (a) {
                memSet(*a, v);
            } else {
                // A store through an unprovable address may clobber
                // any tracked word.
                st.mem.clear();
            }
            return;
          }
          case AddrMode::kInd:
            st.mem.clear();
            return;
          case AddrMode::kImm:
          case AddrMode::kNone:
            st.mem.clear(); // malformed writes never reach here
            return;
        }
    }
};

} // namespace

AbsState
absTransfer(const DecodedInst& di, const AbsState& in)
{
    Machine m{in};
    const Instruction& b = di.body;
    const Opcode op = b.op;

    if (di.loneBranch || op == Opcode::kNop || op == Opcode::kHalt) {
        // no body effect
    } else if (op == Opcode::kEnter) {
        m.st.sp = spAdd(m.st.sp,
                        -static_cast<std::int64_t>(b.dst.value) *
                            kWordBytes);
    } else if (op == Opcode::kLeave) {
        m.st.sp = spAdd(m.st.sp,
                        static_cast<std::int64_t>(b.dst.value) *
                            kWordBytes);
    } else if (op == Opcode::kReturn) {
        // Frame deallocation plus the return-address pop; the target
        // itself is control, not state.
        m.st.sp = spAdd(m.st.sp,
                        static_cast<std::int64_t>(b.dst.value) *
                                kWordBytes +
                            kWordBytes);
    } else if (op == Opcode::kMov) {
        m.write(b.dst, m.read(b.src));
    } else if (isCompare(op)) {
        m.st.flag = absCompare(op, m.read(b.dst), m.read(b.src));
    } else if (isAlu3(op)) {
        m.st.accum = absAlu(op, m.read(b.dst), m.read(b.src));
    } else if (isAlu2(op)) {
        m.write(b.dst, absAlu(op, m.read(b.dst), m.read(b.src)));
    }

    if (di.ctl == Ctl::kCall) {
        // This OUT models the call -> CALLEE edge only: the callee
        // entry sees the caller's state exactly (call writes no CC and
        // no accumulator), after one return-address word is pushed.
        // The call -> return-site edge must instead summarize the
        // whole unanalyzed callee body; interpret() substitutes
        // all-top on that edge at join time.
        m.st.sp = spAdd(m.st.sp, -static_cast<std::int64_t>(kWordBytes));
        if (const auto spc = m.st.sp.constant()) {
            m.memSet(static_cast<Addr>(*spc),
                     Interval::of(static_cast<std::int32_t>(
                         di.callRetPc)));
        } else {
            m.st.mem.clear(); // push through unknown sp may alias
        }
    }

    return m.st;
}

Interval
hull(const Interval& a, const Interval& b)
{
    return {a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi};
}

Interval
widenInterval(const Interval& prev, const Interval& next)
{
    return {next.lo < prev.lo ? INT32_MIN : prev.lo,
            next.hi > prev.hi ? INT32_MAX : prev.hi};
}

AbsState
joinState(const AbsState& a, const AbsState& b)
{
    if (!a.reachable)
        return b;
    if (!b.reachable)
        return a;
    AbsState j;
    j.reachable = true;
    j.accum = hull(a.accum, b.accum);
    j.sp = hull(a.sp, b.sp);
    j.flag.mayTrue = a.flag.mayTrue || b.flag.mayTrue;
    j.flag.mayFalse = a.flag.mayFalse || b.flag.mayFalse;
    // A fact absent on either side is top there: only common ones stay.
    forCommonKeys(a.mem, b.mem,
                  [&](Addr addr, const Interval& va, const Interval& vb) {
                      const Interval h = hull(va, vb);
                      if (!h.isTop())
                          j.mem.emplace_back(addr, h);
                  });
    return j;
}

FlagVal
absCompare(Opcode op, const Interval& a, const Interval& b)
{
    const auto ca = a.constant();
    const auto cb = b.constant();
    if (ca && cb)
        return FlagVal::known(evalCompare(op, *ca, *cb));

    const bool disjoint = a.hi < b.lo || b.hi < a.lo;
    switch (op) {
      case Opcode::kCmpEq:
        if (disjoint)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpNe:
        if (disjoint)
            return FlagVal::known(true);
        break;
      case Opcode::kCmpLt:
        if (a.hi < b.lo)
            return FlagVal::known(true);
        if (a.lo >= b.hi)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpLe:
        if (a.hi <= b.lo)
            return FlagVal::known(true);
        if (a.lo > b.hi)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpGt:
        if (a.lo > b.hi)
            return FlagVal::known(true);
        if (a.hi <= b.lo)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpGe:
        if (a.lo >= b.hi)
            return FlagVal::known(true);
        if (a.hi < b.lo)
            return FlagVal::known(false);
        break;
      case Opcode::kCmpLtU:
      case Opcode::kCmpGeU: {
        // Unsigned order agrees with signed order when both operands
        // share a sign; a negative word is unsigned-greater than any
        // non-negative one.
        const bool a_nn = a.lo >= 0;
        const bool b_nn = b.lo >= 0;
        const bool a_neg = a.hi < 0;
        const bool b_neg = b.hi < 0;
        std::optional<bool> lt;
        if ((a_nn && b_nn) || (a_neg && b_neg)) {
            if (a.hi < b.lo)
                lt = true;
            else if (a.lo >= b.hi)
                lt = false;
        } else if (a_nn && b_neg) {
            lt = true;
        } else if (a_neg && b_nn) {
            lt = false;
        }
        if (lt)
            return FlagVal::known(op == Opcode::kCmpLtU ? *lt : !*lt);
        break;
      }
      default:
        break;
    }
    return FlagVal::top();
}

Interval
absAlu(Opcode op, const Interval& a, const Interval& b)
{
    const auto ca = a.constant();
    const auto cb = b.constant();
    if (ca && cb)
        return Interval::of(evalAlu(op, *ca, *cb));

    const auto fits = [](std::int64_t lo, std::int64_t hi) {
        return lo >= INT32_MIN && hi <= INT32_MAX;
    };

    switch (op) {
      case Opcode::kAdd:
      case Opcode::kAdd3:
        if (fits(a.lo + b.lo, a.hi + b.hi))
            return {a.lo + b.lo, a.hi + b.hi};
        break;
      case Opcode::kSub:
      case Opcode::kSub3:
        if (fits(a.lo - b.hi, a.hi - b.lo))
            return {a.lo - b.hi, a.hi - b.lo};
        break;
      case Opcode::kAnd:
      case Opcode::kAnd3:
        // A mask with one provably non-negative side bounds the result
        // regardless of the other side's sign: 0 <= (a & b) <= b when
        // b >= 0 (clearing bits never grows a non-negative word).
        if (a.lo >= 0 && b.lo >= 0)
            return {0, a.hi < b.hi ? a.hi : b.hi};
        if (b.lo >= 0)
            return {0, b.hi};
        if (a.lo >= 0)
            return {0, a.hi};
        break;
      case Opcode::kOr:
      case Opcode::kOr3:
      case Opcode::kXor:
      case Opcode::kXor3:
        if (a.lo >= 0 && b.lo >= 0) {
            // Bits above the highest set bit of either bound stay 0.
            std::int64_t m = a.hi | b.hi;
            m |= m >> 1;
            m |= m >> 2;
            m |= m >> 4;
            m |= m >> 8;
            m |= m >> 16;
            return {0, m};
        }
        break;
      case Opcode::kShl: {
        // Left shift by a constant count is monotone on non-negative
        // words while no shifted bit can reach the sign position.
        if (cb && *cb >= 0 && *cb <= 31 && a.lo >= 0 &&
            (a.hi << *cb) <= INT32_MAX) {
            return {a.lo << *cb, a.hi << *cb};
        }
        break;
      }
      case Opcode::kShr: {
        // Logical shift of the 32-bit word; a shift count provably in
        // [1, 31] bounds the result from above even when the shifted
        // word may be negative (the sign bit is shifted in as zero).
        const std::int64_t cnt_hi =
            b.lo >= 1 && b.hi <= 31 ? (0xFFFFFFFFll >> b.lo) : INT32_MAX;
        if (a.lo >= 0)
            return {0, a.hi < cnt_hi ? a.hi : cnt_hi};
        if (b.lo >= 1 && b.hi <= 31)
            return {0, cnt_hi};
        break;
      }
      case Opcode::kMul:
      case Opcode::kMul3: {
        const std::int64_t p[4] = {a.lo * b.lo, a.lo * b.hi,
                                   a.hi * b.lo, a.hi * b.hi};
        std::int64_t lo = p[0];
        std::int64_t hi = p[0];
        for (const std::int64_t v : p) {
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
        if (fits(lo, hi))
            return {lo, hi};
        break;
      }
      case Opcode::kMov:
        return b;
      default:
        break;
    }
    return Interval::top();
}

namespace
{

const AbsState&
stateAt(const std::map<Addr, AbsState>& states, Addr pc)
{
    static const AbsState top = AbsState::anyState();
    const auto it = states.find(pc);
    return it == states.end() ? top : it->second;
}

} // namespace

const AbsState&
AbsIntResult::inAt(Addr pc) const
{
    return stateAt(in, pc);
}

const AbsState&
AbsIntResult::outAt(Addr pc) const
{
    return stateAt(out, pc);
}

std::optional<AbsState>
AbsPolicy::edge(const CfgNode& from, const AbsState& s, Addr to) const
{
    if (isCallReturnEdge(from.di, to))
        return s.reachable ? AbsState::anyState() : AbsState{};
    const auto f = conditional && s.reachable ? edgeFlag(from.di, to)
                                              : std::nullopt;
    if (!f)
        return std::nullopt;
    // Traversing this edge means the flag held *f.
    if (!(*f ? s.flag.mayTrue : s.flag.mayFalse))
        return AbsState{};
    AbsState r = s;
    r.flag = FlagVal::known(*f);
    return r;
}

AbsState
AbsPolicy::transfer(const CfgNode& n, const AbsState& in) const
{
    if (!in.reachable)
        return AbsState{};
    if (n.di.totalParcels <= 0)
        return in; // decode-error placeholder: no modeled effect
    return absTransfer(n.di, in);
}

AbsIntResult
interpret(const Cfg& cfg, const AbsIntOptions& opts)
{
    AbsIntResult r;
    static_cast<FixpointRun&>(r) =
        solveFixpoint(cfg, AbsPolicy{entryState(cfg.program())}, r.in,
                      r.out, opts.stepCap);
    return r;
}

} // namespace crisp::analysis
