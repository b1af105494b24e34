/**
 * @file
 * Backward liveness over the issue-point CFG: the accumulator, the
 * condition flag, and absolute memory words, with dead-store detection.
 *
 * Memory operands resolve to absolute word addresses through the
 * abstract interpreter's SP facts (a stack operand is only resolved
 * while SP is proven a singleton at that point); any unresolvable read
 * — pointer loads, reads under unknown SP — conservatively makes all
 * of memory live. Kills are only applied for provably-resolved writes,
 * so the analysis under-approximates deadness and never calls a live
 * location dead.
 *
 * The observability contract at program exit matches the translation
 * validator (tv.hh): the accumulator plus every data- and text-segment
 * word is live at halt, while stack slots are not — a frame slot whose
 * value can no longer reach a global, the accumulator, or control flow
 * is genuinely dead. Return-address words pushed by calls are read by
 * the matching return (resolved through SP), so they stay live across
 * the callee.
 */

#ifndef CRISP_ANALYSIS_LIVENESS_HH
#define CRISP_ANALYSIS_LIVENESS_HH

#include <map>
#include <vector>

#include "absint.hh"
#include "fixpoint.hh"
#include "flat.hh"

namespace crisp::analysis
{

/**
 * Live memory words: either a finite live-set, or (after an
 * unresolvable read) "everything except a finite dead-set". The set is
 * a FlatSet (flat.hh): liveness copies and joins it at every node
 * visit, and the live data segment it carries is contiguous words.
 */
struct MemLive
{
    /** When true, every word is live except those in `words`. */
    bool all = false;
    /** Live-set (all == false) or dead-set (all == true). */
    FlatSet<Addr> words;

    bool isLive(Addr a) const { return words.contains(a) != all; }

    void
    gen(Addr a)
    {
        if (all)
            words.erase(a);
        else
            words.insert(a);
    }

    void
    kill(Addr a)
    {
        if (all)
            words.insert(a);
        else
            words.erase(a);
    }

    /** An unresolvable read: every word may be needed. */
    void
    genAll()
    {
        all = true;
        words.clear();
    }

    bool operator==(const MemLive&) const = default;
};

/** Union of two MemLive sets. */
MemLive joinMemLive(const MemLive& a, const MemLive& b);

/** What is live at one program point. */
struct LiveSet
{
    bool accum = false;
    bool flag = false;
    MemLive mem;

    bool operator==(const LiveSet&) const = default;
};

/** Why an instruction's only effect is provably unobservable. */
enum class DeadKind
{
    kMemStore, //!< store to a word dead on every path out
    kAccumDef, //!< accumulator definition never read
    kCompare,  //!< compare whose flag is dead at every reader
};

/** One provably-dead definition. */
struct DeadStore
{
    Addr pc = 0;
    DeadKind kind = DeadKind::kMemStore;
    /** Resolved absolute byte address (kMemStore only). */
    Addr addr = 0;

    bool operator==(const DeadStore&) const = default;
};

/** Fixpoint result of one backward pass. When the step cap trips
 *  (converged == false), everything degrades to live. */
struct LivenessResult : FixpointRun
{
    /** Live-in / live-out per issue point, keyed like Cfg::nodes(). */
    std::map<Addr, LiveSet> in;
    std::map<Addr, LiveSet> out;

    /** Provably-dead definitions, ascending by pc. */
    std::vector<DeadStore> dead;

    /** Live-out at @p pc; all-live if the node is unknown. */
    const LiveSet& outAt(Addr pc) const;
};

/**
 * Run backward liveness over @p cfg, resolving memory operands through
 * @p ai (the plain or SCCP-refined interpretation of the same CFG).
 */
LivenessResult computeLiveness(const Cfg& cfg, const AbsIntResult& ai);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_LIVENESS_HH
