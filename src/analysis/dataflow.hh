/**
 * @file
 * Concrete dataflow passes over the issue-point CFG that the CRISP
 * invariants need:
 *
 *  - reaching-compare analysis: for every conditional-branch issue
 *    point, the minimum number of issue slots separating it from the
 *    nearest condition-code writer on any path. The Execution Unit
 *    resolves a conditional branch at issue when no CC writer is in its
 *    three-stage pipeline, so a minimum separation of kResolveSlots
 *    issue slots proves the branch can never speculate — the Branch
 *    Spreading contract, statically;
 *  - CC def-use: conditional branches reachable with no compare ever
 *    executed (the flag still holds its power-on value);
 *  - fold-eligibility classification per branch parcel, mirroring the
 *    PDU fold policy (one-parcel-branch rule, the three-parcel call
 *    exclusion, carrier-length limits) and recording whether the branch
 *    always folds, never folds, or both depending on entry path;
 *  - stack-offset bounds: operands addressing stack slots outside the
 *    stack-cache window (guaranteed misses) or below the frame.
 */

#ifndef CRISP_ANALYSIS_DATAFLOW_HH
#define CRISP_ANALYSIS_DATAFLOW_HH

#include <cstdint>
#include <map>

#include "cfg.hh"

namespace crisp::analysis
{

/**
 * Issue slots that must separate a CC writer from a conditional branch
 * for the branch to be provably resolved at issue: the writer occupies
 * IR, OR and RR for one cycle each, and issue is in order at one entry
 * per cycle, so three interposed issue slots put the writer past RR.
 */
inline constexpr int kResolveSlots = 3;

/** Saturation cap for the slot-distance lattice. */
inline constexpr int kSlotCap = 15;

/** Reaching-compare result for one conditional-branch issue point. */
struct SpreadInfo
{
    /** Issue point holding the branch (carrier pc when folded). */
    Addr pc = 0;
    /** Address of the conditional branch parcel itself. */
    Addr branchPc = 0;
    /**
     * Minimum issue slots between the nearest reaching CC writer and
     * this branch over all paths; kSlotCap when no compare reaches it
     * (the flag is final at issue either way). 0 for a branch folded
     * with its own compare.
     */
    int issueSlots = 0;
    /** issueSlots >= kResolveSlots: can never speculate. */
    bool guaranteedResolved = false;
    /** A path reaches this branch with no compare executed at all. */
    bool compareMayBeMissing = false;

    bool operator==(const SpreadInfo&) const = default;
};

/** Keyed by issue-point pc (not branch pc). */
std::map<Addr, SpreadInfo> analyzeSpread(const Cfg& cfg);

/** Why a branch parcel does not fold into a carrier. */
enum class NoFoldReason : std::uint8_t {
    kNone = 0,        //!< it folds
    kPolicyNone,      //!< FoldPolicy::kNone disables folding
    kNotOneParcel,    //!< three-parcel branch (includes every call)
    kIndirect,        //!< indirect target: never foldable
    kNoCarrier,       //!< only ever entered directly (jump target,
                      //!< first instruction, or after a control
                      //!< transfer — "a branch after a call")
    kCarrierTooLong,  //!< preceding body too long for the policy
    kCarrierControl,  //!< preceding instruction transfers control
};

std::string_view noFoldReasonName(NoFoldReason r);

/** How a branch parcel is issued across all reachable entry paths. */
enum class FoldClass : std::uint8_t {
    kFolded = 0, //!< always rides a carrier entry
    kLone,       //!< always issues as its own entry
    kMixed,      //!< both, depending on how control arrives
};

/** One static branch site (a branch parcel reachable in any form). */
struct BranchSite
{
    Addr branchPc = 0;
    Opcode op = Opcode::kJmp;
    bool conditional = false;
    bool predictTaken = false;
    bool shortForm = false;
    bool indirect = false;
    /** Static target (meaningless for indirect sites). */
    Addr takenPc = 0;
    FoldClass cls = FoldClass::kLone;
    NoFoldReason reason = NoFoldReason::kNone;
    /** Carrier issue point when cls != kLone. */
    Addr carrierPc = 0;
    /**
     * Every containing issue point is guaranteedResolved (conditional
     * sites only; vacuously false for unconditional ones).
     */
    bool guaranteedResolved = false;

    bool operator==(const BranchSite&) const = default;
};

/**
 * Collect every reachable branch site with its fold classification,
 * joining in the spread verdict per site (a mixed site is guaranteed
 * only if both its issue points are).
 */
std::map<Addr, BranchSite>
collectBranchSites(const Cfg& cfg,
                   const std::map<Addr, SpreadInfo>& spread);

/** One out-of-window (or negative) stack operand occurrence. */
struct StackIssue
{
    Addr pc = 0;
    std::int32_t slot = 0;
    bool negative = false; //!< below the frame: an outright error
};

/**
 * Scan reachable bodies for stack-slot operands outside the
 * [0, windowWords) stack-cache window.
 */
std::vector<StackIssue> analyzeStackWindow(const Cfg& cfg,
                                           int window_words);

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_DATAFLOW_HH
