/**
 * @file
 * Abstract interpretation over the issue-point CFG: value intervals and
 * condition-flag definedness, propagated through CRISP addressing modes
 * and the stack discipline to a sound fixpoint.
 *
 * The domain tracks, per issue point:
 *
 *  - the accumulator as a signed interval;
 *  - SP as an interval (exact at entry: the stack grows down from
 *    (memBytes - 4) & ~3, and enter/leave/call/return move it by
 *    statically known amounts);
 *  - a bounded map of absolute word addresses -> intervals for stack
 *    slots and globals whose contents are proven along every path.
 *    Stack operands resolve to absolute addresses only while SP is a
 *    singleton; a store through an unknown address (pointer writes,
 *    stack stores under unknown SP) clobbers the whole map;
 *  - the condition flag as the four-point lattice over {may-be-true,
 *    may-be-false}, seeded Known(false) at entry (the architectural
 *    power-on value, which the EU honors: a branch before any compare
 *    tests exactly that value).
 *
 * Calls are edge-sensitive. The call -> callee edge keeps the caller's
 * state exactly (a call writes no CC and no accumulator; it pushes one
 * return-address word, moving SP by a known amount), so constants and
 * frame facts survive into callees — including the runtime's
 * `_start: call main` preamble. The CFG also routes a direct edge from
 * each call to its return site (bypassing the callee); that edge is
 * joined as all-top, because the unanalyzed callee body may touch CC,
 * the accumulator, any memory word, and even the SP discipline.
 * The fixpoint solver (fixpoint.hh) widens a loop head's growing
 * intervals to their limits after a fixed number of joins, which
 * bounds every ascending chain; its step cap backstops termination and
 * degrades to all-top (still sound) if ever hit.
 *
 * Consumers: the branch-cost engine (cost.hh) reads the post-body flag
 * at each issue point to prove branches constant, and the lint layer
 * turns those proofs into cost.constant-cc / cost.dead-branch notes.
 */

#ifndef CRISP_ANALYSIS_ABSINT_HH
#define CRISP_ANALYSIS_ABSINT_HH

#include <cstdint>
#include <map>
#include <optional>

#include "cfg.hh"
#include "fixpoint.hh"
#include "flat.hh"

namespace crisp::analysis
{

/** Signed 32-bit value interval [lo, hi] (int64 bounds, never empty). */
struct Interval
{
    std::int64_t lo = INT32_MIN;
    std::int64_t hi = INT32_MAX;

    static Interval top() { return {INT32_MIN, INT32_MAX}; }

    static Interval
    of(std::int32_t v)
    {
        return {v, v};
    }

    bool isTop() const { return lo == INT32_MIN && hi == INT32_MAX; }

    /** The single value when lo == hi. */
    std::optional<std::int32_t>
    constant() const
    {
        if (lo == hi)
            return static_cast<std::int32_t>(lo);
        return std::nullopt;
    }

    bool
    contains(std::int64_t v) const
    {
        return lo <= v && v <= hi;
    }

    bool operator==(const Interval&) const = default;
};

/** SP lives in the unsigned 32-bit address space: its one top. */
inline constexpr Interval kSpTop{0, 0xFFFFFFFFll};

/** Least interval containing both arguments. */
Interval hull(const Interval& a, const Interval& b);

/**
 * Interval widening: a bound of @p next that grew past @p prev jumps
 * to its limit, any other bound keeps @p prev's, so the result
 * contains both arguments.
 */
Interval widenInterval(const Interval& prev, const Interval& next);

/**
 * The condition flag: which values it may hold at a program point.
 * Bottom (neither) never appears in a reachable state.
 */
struct FlagVal
{
    bool mayTrue = true;
    bool mayFalse = true;

    static FlagVal top() { return {true, true}; }

    static FlagVal
    known(bool v)
    {
        return {v, !v};
    }

    /** The single value the flag must hold, if proven. */
    std::optional<bool>
    constant() const
    {
        if (mayTrue != mayFalse)
            return mayTrue;
        return std::nullopt;
    }

    bool operator==(const FlagVal&) const = default;
};

/** Abstract machine state at one program point. */
struct AbsState
{
    /** False only for the pre-fixpoint "no path reaches here" seed. */
    bool reachable = false;

    Interval accum;
    Interval sp = kSpTop;
    FlagVal flag;

    /** Proven word contents keyed by absolute byte address, ascending;
     *  an absent address holds top. */
    FlatMap<Addr, Interval> mem;

    /** Reachable state with nothing proven (the lattice top). */
    static AbsState
    anyState()
    {
        AbsState s;
        s.reachable = true;
        return s;
    }

    bool operator==(const AbsState&) const = default;
};

/** Join (least upper bound) of two abstract states. */
AbsState joinState(const AbsState& a, const AbsState& b);

/**
 * The state at the program entry: accumulator 0, SP exact at
 * (memBytes - 4) & ~3, and the flag at its power-on value false (the
 * EU honors exactly that value for a branch issued before any
 * compare).
 */
AbsState entryState(const Program& prog);

/**
 * Absolute byte address of a stack or absolute operand under @p s, if
 * provable: stack slots resolve only while SP is a singleton.
 */
std::optional<Addr> operandAddress(const Operand& o, const AbsState& s);

/**
 * The flag value that crossing the edge from conditional branch @p di
 * into @p to implies; none for other branches, a branch to the next
 * instruction (both roles), or a wild target kept by validation.
 */
std::optional<bool> edgeFlag(const DecodedInst& di, Addr to);

/**
 * Abstract OUT state of @p di applied to reachable state @p in — the
 * transfer function shared by interpret() and the sparse conditional
 * constant propagation in sccp.cc.
 */
AbsState absTransfer(const DecodedInst& di, const AbsState& in);

/**
 * Widen @p next against @p prev to an upper bound of both: every
 * component that grew jumps to its limit (a memory fact to top), the
 * rest keep @p prev's value, and the flag is joined.
 */
AbsState widenAbsState(const AbsState& prev, const AbsState& next,
                       int& widenings);

/**
 * The fixpoint policy (fixpoint.hh) of the interval lattice, shared by
 * interpret() and sccp(). A call -> return-site edge carries all-top:
 * the callee body between the two points is unanalyzed, so everything
 * it could touch (CC, accumulator, memory, even the SP discipline) is
 * havocked, and only reachability flows through. With `conditional`
 * set (SCCP), a conditional edge carries the flag value it implies,
 * and nothing at all when the flag rules it out.
 */
struct AbsPolicy
{
    using State = AbsState;
    static constexpr Direction kDirection = Direction::kForward;

    AbsState entry;
    bool conditional = false;

    AbsState boundary() const { return entry; }
    AbsState top() const { return AbsState::anyState(); }
    std::optional<AbsState> edge(const CfgNode& from, const AbsState& s,
                                 Addr to) const;

    AbsState
    join(const AbsState& a, const AbsState& b) const
    {
        return joinState(a, b);
    }

    AbsState
    widen(const AbsState& prev, const AbsState& next, int& widenings) const
    {
        return widenAbsState(prev, next, widenings);
    }

    AbsState transfer(const CfgNode& n, const AbsState& in) const;
};

/** Fixpoint result of one interpretation run. */
struct AbsIntResult : FixpointRun
{
    /** Pre-/post-state per issue point, keyed like Cfg::nodes(). */
    std::map<Addr, AbsState> in;
    std::map<Addr, AbsState> out;

    /** IN / OUT state at @p pc; top if the node is unknown. */
    const AbsState& inAt(Addr pc) const;
    const AbsState& outAt(Addr pc) const;
};

/** Tuning knobs for one interpretation run. */
struct AbsIntOptions
{
    /** Step-cap override; 0 keeps the nodes-proportional default.
     *  Directed tests use a tiny cap to exercise the all-top bail. */
    std::uint64_t stepCap = 0;
};

/**
 * Run the abstract interpreter to fixpoint over @p cfg. Decode-error
 * placeholder nodes pass their input through unchanged (they have no
 * successors anyway).
 */
AbsIntResult interpret(const Cfg& cfg, const AbsIntOptions& opts = {});

// Abstract transfer primitives, exposed for the unit tests ------------

/** Abstract compare: which flag values (a REL b) may produce. */
FlagVal absCompare(Opcode op, const Interval& a, const Interval& b);

/** Abstract ALU: sound (possibly top) interval for (a OP b), agreeing
 *  exactly with evalAlu on singleton operands. */
Interval absAlu(Opcode op, const Interval& a, const Interval& b);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_ABSINT_HH
