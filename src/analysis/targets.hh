/**
 * @file
 * Interprocedural indirect-target analysis: a value-set domain layered
 * on the absint interval lattice that proves, per indirect branch and
 * return site, a sound finite set of targets.
 *
 * The domain extends AbsState with a bounded map of absolute word
 * addresses -> exact finite value sets. The two layers are maintained
 * side by side by one transfer function: the interval layer is
 * absTransfer() unchanged; the set layer re-derives every memory write
 * with the same address discipline (provable absolute address or a
 * whole-map clobber) and evaluates ALU ops element-wise through
 * tracked sets, so `shl t,2; add t,table` keeps the exact table-slot
 * addresses where the interval hull would smear them across unaligned
 * bytes (read32 is alignment-agnostic, so the hull alone admits
 * garbage overlap words).
 *
 * Three precision sources feed the sets:
 *
 *  - immutable initial words: a may-write pre-pass over the sccp
 *    fixpoint bounds every reachable store; a word no store can reach
 *    always holds its load-image value, so jump-table entries (and any
 *    constant global) become known constants. A single store through
 *    an unprovable address degrades the whole image to mutable.
 *  - guard refinement: on a conditional edge whose flag was set by a
 *    compare against an immediate (the dense-switch `cmpGeU t,range;
 *    iftjmp default` guard, possibly spread apart), the compared
 *    location is intersected with the relation-implied interval and,
 *    when small, materialized as an exact set. Refinement walks back
 *    through single-predecessor spread code, giving up if any
 *    interposed body may write the compared word.
 *  - call-pushed return words: the caller's pushed return address
 *    flows to the callee as a singleton set; joins over call sites
 *    union them, so return target sets fall out of the same lattice.
 *
 * Join is pointwise set union capped at kValueSetCap (overflow means
 * top); widening drops every set that grew since the previous join,
 * so ascending chains are finite and the fixpoint solver's discipline
 * (join counter, widening threshold, step-cap bail) applies unchanged.
 *
 * Soundness contract (checked end to end by torture invariant 8): for
 * every retired execution of an indirect branch, the dynamic target is
 * a member of the site's static set whenever the site is `resolved`.
 * Return sites matched through the call graph instead of the value
 * lattice assume return-word integrity and are reported, never
 * enforced.
 */

#ifndef CRISP_ANALYSIS_TARGETS_HH
#define CRISP_ANALYSIS_TARGETS_HH

#include <cstdint>
#include <map>
#include <set>

#include "absint.hh"
#include "callgraph.hh"
#include "cfg.hh"
#include "flat.hh"
#include "sccp.hh"
#include "sim/translate.hh"

namespace crisp::analysis
{

/** Exact values a tracked word may hold; beyond the cap it is top. */
inline constexpr std::size_t kValueSetCap = 64;

/** Tracked-set map size cap, mirroring the absint kMemCap discipline. */
inline constexpr std::size_t kValueSetMemCap = 64;

/** A finite set of word values, or top. Never empty when not top. */
struct ValueSet
{
    bool top = true;
    FlatSet<std::int32_t> vals;

    static ValueSet topSet() { return {}; }

    static ValueSet
    of(std::int32_t v)
    {
        return {false, {v}};
    }

    bool
    contains(std::int32_t v) const
    {
        return top || vals.contains(v);
    }

    bool operator==(const ValueSet&) const = default;
};

/** Pointwise union; top if either side is top or the cap is hit. */
ValueSet joinValueSet(const ValueSet& a, const ValueSet& b);

/** How an indirect site names its target. */
enum class TargetSiteKind {
    kIndirectJump, //!< Ctl::kIndirect (switch dispatch)
    kReturn,       //!< Ctl::kRet (target popped from the stack)
};

/** Proven target set of one indirect site. */
struct SiteTargets
{
    /** Issue-point address (carrier pc when the branch is folded). */
    Addr pc = 0;
    /** Address of the branch instruction itself. */
    Addr branchPc = 0;
    TargetSiteKind kind = TargetSiteKind::kIndirectJump;

    /** True when the analysis proved a finite target set. */
    bool resolved = false;
    /** Proven targets when resolved; the fallback candidate set (the
     *  global jump-table candidates, or call-graph return sites)
     *  otherwise. */
    std::set<Addr> targets;

    /** Values the lattice proved that are *not* valid text targets
     *  (out of table / garbage words): jumping to one would fault. */
    std::size_t invalidTargets = 0;

    /** Resolved-return-only: the set came from call-graph matching,
     *  which assumes return-word integrity; report, never enforce. */
    bool fromReturnMatch = false;

    /** Sound to check dynamic targets against `targets` at retire
     *  time (torture invariant 8). */
    bool enforceable = false;

    bool singleton() const { return resolved && targets.size() == 1; }

    bool operator==(const SiteTargets&) const = default;
};

/** Result of one target analysis run. When the step cap trips
 *  (converged == false), every site falls back to ⊤. */
struct TargetsResult : FixpointRun
{
    /** Indirect sites keyed by issue-point address. */
    std::map<Addr, SiteTargets> sites;

    /** True when a store through an unprovable address forced the
     *  whole initial image mutable (no immutable-word reads). */
    bool allMutable = false;

    /** Byte ranges reachable stores may write (merged, sorted). */
    std::vector<std::pair<Addr, Addr>> mayWrite;

    /** Sites with a proven finite target set. */
    std::size_t
    resolvedCount() const
    {
        std::size_t n = 0;
        for (const auto& [pc, s] : sites)
            n += s.resolved ? 1u : 0u;
        return n;
    }

    /** Proven-singleton sites (devirtualization candidates). */
    std::size_t
    singletonCount() const
    {
        std::size_t n = 0;
        for (const auto& [pc, s] : sites)
            n += s.singleton() ? 1u : 0u;
        return n;
    }

    const SiteTargets* siteAt(Addr pc) const;
};

/**
 * Run the value-set fixpoint over @p cfg and extract per-site target
 * sets. @p sccp_result supplies the may-write pre-pass states; pass
 * the same run the caller already computed.
 */
TargetsResult analyzeTargets(const Cfg& cfg, const CallGraph& cg,
                             const SccpResult& sccp_result,
                             const AbsIntOptions& opts = {});

/**
 * Lower proven target sets into fast-engine hints (sim/translate.hh):
 * per branch address, the union of the target sets over every issue
 * point covering that branch — emitted only when all of them are
 * enforceable with no out-of-table values, so a singleton really is
 * the one possible target. (The engine guards every use at runtime
 * anyway; this filter just keeps the hints honest.) Return sites are
 * excluded — the engine's return inline caches already handle them.
 */
IndirectHints hintsFromTargets(const TargetsResult& targets);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_TARGETS_HH
