/**
 * @file
 * Dataflow-driven optimizer driver: the `crispcc -O` fixpoint loop.
 *
 * Round structure (at most OptOptions::maxRounds):
 *
 *   relink -> open an analysis session (session.hh) -> map pc-keyed
 *   facts to non-label CodeItem ordinals through the linear-decode
 *   pairing (the same pairing --verify audits) -> apply ONE rewrite
 *   pass (constant-branch folding, then DCE, then copy propagation,
 *   then single-target indirect-branch devirtualization, whichever
 *   fires first) -> repeat
 *
 * Each pass asks the session for the facts it reads (SCCP for the
 * first two, liveness and reaching definitions for DCE and copy
 * propagation, target sets for devirtualization), so a round that
 * fires early never computes the later passes' facts.
 *
 * One pass per round keeps every ordinal-keyed plan valid: each plan
 * is derived from, and applied to, the same linked layout.
 *
 * After the loop the driver re-runs Branch Spreading (now aware of
 * CodeItem::ccDead compares), the peephole, and prediction bits, then
 * gates the result with the translation validator (tv.hh). On a TV
 * failure it falls back in stages: drop the re-spread, then revert to
 * the unoptimized baseline — so `-O` can reshape programs aggressively
 * while the shipped binary is always validated. OptOptions::tamperDce
 * deliberately deletes one live store and skips the fallback, so tests
 * can watch the validator catch a miscompiling pass.
 */

#ifndef CRISP_ANALYSIS_OPT_HH
#define CRISP_ANALYSIS_OPT_HH

#include <string>

#include "cc/compiler.hh"
#include "tv.hh"

namespace crisp::analysis
{

struct OptOptions
{
    /** Analyze/rewrite round cap. */
    int maxRounds = 8;
    /** Run the concrete equivalence leg of the validator. */
    bool semanticTv = true;
    /**
     * Deliberately delete one live store during DCE and skip the TV
     * fallback (negative testing: the validator must reject).
     */
    bool tamperDce = false;
};

/** What each pass did, for `crispcc --stats-json`. */
struct OptPassStats
{
    int rounds = 0;
    int branchesRewritten = 0;   //!< constant cond branches folded
    int deadRemoved = 0;         //!< dead defs + redundant copies cut
    int unreachableRemoved = 0;  //!< SCCP-unexecutable items cut
    int ccDeadMarked = 0;        //!< compares downgraded to ccDead
    int operandsRewritten = 0;   //!< copy-propagated immediates
    int devirtualized = 0;       //!< single-target indirect jmps made direct
    int respreadFully = 0;       //!< fully-spread pairs after rewrites
    int peepholeRemoved = 0;
    std::size_t instrBefore = 0; //!< non-label items, baseline
    std::size_t instrAfter = 0;  //!< non-label items, shipped result
    std::uint64_t envelopeHiBefore = 0; //!< sum of per-site delay his
    std::uint64_t envelopeHiAfter = 0;
};

struct OptReport
{
    /** The shipped compile (optimized, or the baseline on fallback). */
    cc::CompileResult result;
    OptPassStats stats;
    /** Validator verdict for the shipped result (trivially ok when
     *  nothing fired). */
    TvReport tv;
    /** False for delay-slot baseline builds: -O does not apply. */
    bool applicable = true;
    /** At least one rewrite was kept in the shipped result. */
    bool optimized = false;
    /** The staged fallback engaged (candidate failed validation). */
    bool tvFallback = false;

    /** Stats + verdict as one JSON object (crispcc --stats-json). */
    std::string toJson() const;
};

/**
 * Optimize @p base (a finished cc::compile result) under the same
 * compile options @p copts. Does not reparse: rewrites base.code and
 * relinks through base.link.
 */
OptReport optimize(const cc::CompileResult& base,
                   const cc::CompileOptions& copts,
                   const OptOptions& oopts = {});

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_OPT_HH
