/**
 * @file
 * Reaching definitions at issue-point granularity: which instruction
 * last defined the accumulator, the condition flag, or an absolute
 * memory word, along every path into each issue point.
 *
 * Locations resolve through the abstract interpreter's SP facts (like
 * liveness.hh). A definition site is an issue-point pc; the synthetic
 * kWildDef site stands for "unknown" — uninitialized entry state,
 * havocked call-return edges, and stores through unresolvable
 * addresses. Consumers:
 *
 *  - findConstPropUses: read-only operands whose unique reaching
 *    definition is `mov LOC, #imm` — safe to rewrite to the immediate;
 *  - findRedundantCopies: `mov X, Y` whose effect is proven a no-op
 *    (X already holds Y's value along every path) — safe to delete;
 *  - the dataflow.redundant-copy lint rule and def-use chains.
 */

#ifndef CRISP_ANALYSIS_REACHDEFS_HH
#define CRISP_ANALYSIS_REACHDEFS_HH

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "absint.hh"
#include "fixpoint.hh"
#include "flat.hh"

namespace crisp::analysis
{

/** Definition-site pc for "defined by something unanalyzable". */
inline constexpr Addr kWildDef = 0xFFFFFFFFu;

/** Location key: kAccumLoc, kFlagLoc, or an absolute byte address. */
using LocKey = std::int64_t;
inline constexpr LocKey kAccumLoc = -1;
inline constexpr LocKey kFlagLoc = -2;

/** Location count past which a state degrades to all-wild. */
inline constexpr std::size_t kRdKeyCap = 512;

/** Reaching-definition state at one program point. */
struct RdState
{
    bool reachable = false;

    /**
     * (location, definition site) pairs, ascending. A location with no
     * pair has the wild definition alone (everything is wild at entry
     * and after havoc).
     */
    FlatSet<std::pair<LocKey, Addr>> defs;

    /** Definitions reaching this point for @p key, ascending. */
    std::vector<Addr> defsOf(LocKey key) const;

    /**
     * @p site becomes the only definition of @p key. A new location
     * past kRdKeyCap degrades the state to all-wild.
     */
    void define(LocKey key, Addr site);

    /** Drop every memory location: an unresolvable store may have hit
     *  any word. */
    void havocMem();

    bool operator==(const RdState&) const = default;
};

/**
 * Join of two states: per location the union of both sides' sites,
 * plus the wild site where only one side holds the location. Past
 * kRdKeyCap locations the join is all-wild.
 */
RdState joinRd(const RdState& a, const RdState& b);

/** Fixpoint result of one forward pass. When the step cap trips
 *  (converged == false), everything is wild and no chain is built. */
struct ReachDefsResult : FixpointRun
{
    /** Pre-state per issue point, keyed like Cfg::nodes(). */
    std::map<Addr, RdState> in;

    /** Def-use chains: definition pc -> issue points that may read it. */
    std::map<Addr, std::set<Addr>> defUses;
};

/** Run reaching definitions over @p cfg with absint operand facts. */
ReachDefsResult computeReachDefs(const Cfg& cfg, const AbsIntResult& ai);

/** A read-only operand provably equal to an immediate. */
struct ConstUse
{
    Addr pc = 0;       //!< issue point whose operand can be rewritten
    bool dstOperand = false; //!< which operand position (dst vs src)
    std::int32_t value = 0;  //!< the proven immediate
    Addr defPc = 0;          //!< the unique `mov LOC, #imm` definition
};

/**
 * Read-only operand positions whose unique reaching definition is a
 * `mov` of an immediate: rewriting the operand to that immediate
 * preserves the value read on every path.
 */
std::vector<ConstUse> findConstPropUses(const Cfg& cfg,
                                        const ReachDefsResult& rd,
                                        const AbsIntResult& ai);

/** A provably no-op copy. */
struct RedundantCopy
{
    Addr pc = 0;    //!< the `mov X, Y` proven to rewrite X with itself
    Addr defPc = 0; //!< the earlier copy that already established X = Y
};

/**
 * Copies `mov X, Y` where X provably already holds Y's value: either
 * the same copy reaches unchanged (X=Y established, Y undisturbed), or
 * the reverse copy `mov Y, X` reaches with X undisturbed.
 */
std::vector<RedundantCopy> findRedundantCopies(const Cfg& cfg,
                                               const ReachDefsResult& rd,
                                               const AbsIntResult& ai);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_REACHDEFS_HH
