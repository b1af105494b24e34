/**
 * @file
 * Translation of predecoded DIC lines into threaded-code operations.
 *
 * The predecode cache already materializes the paper's 192-bit canonical
 * form — a decoded body plus Next-PC / Alternate-Next-PC links. A
 * Translation lowers that one step further, into the form a threaded
 * interpreter wants to dispatch on:
 *
 *  - one TOp per parcel address (same indexing as the predecode table),
 *    so any branch target inside the text segment resolves to a handler
 *    with one subtract and one shift;
 *  - Next-PC / Alternate-Next-PC links pre-resolved to table indices
 *    (kNoIdx when the successor leaves the text segment — the fetch
 *    fault is raised only if control actually goes there, exactly like
 *    the interpreter);
 *  - operand specifiers pre-scaled to byte offsets (the interpreter
 *    recomputes `value * 4` per access; here it is folded into the
 *    table) — all in wrapping uint32 arithmetic, matching the
 *    interpreter's address math bit for bit;
 *  - superblock links: every run of sequential (non-control) ops is
 *    measured at translation time so the fast engine can retire the
 *    straight-line region in a single handler activation.
 *
 * Translation is semantics-preserving lowering only: every fault the
 * interpreter would raise (truncated instruction, unaligned or
 * out-of-text fetch, indirect-target read) is represented and raised at
 * the same architectural point, with the same message.
 */

#ifndef CRISP_SIM_TRANSLATE_HH
#define CRISP_SIM_TRANSLATE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "config.hh"
#include "isa/program.hh"
#include "predecode.hh"

namespace crisp
{

/** Successor index meaning "leaves translated code" (fetch fault if
 *  control actually transfers there). */
inline constexpr std::uint32_t kNoIdx = 0xffffffffu;

/**
 * Optional per-branch indirect-target hints, keyed by the *branch
 * instruction's* address (TOp::branchPc). Produced by the
 * interprocedural value-set analysis (analysis/targets.hh) from proven
 * finite target sets; the translator treats them as predictions only:
 * the first element seeds the exit's monomorphic inline cache, which
 * the engine compares against the actually-read target word, so a
 * stale or wrong hint costs one cache miss, never correctness.
 */
struct IndirectHints
{
    std::map<Addr, std::vector<Addr>> targets;
};

/** Handler selector: what the dispatch loop does with this op. */
enum class TKind : std::uint8_t {
    /** Sequential (non-control) op: run the superblock starting here. */
    kChain = 0,
    /** Unconditional jump (static or indirect), possibly folded. */
    kJmp,
    /** Conditional branch, possibly folded. */
    kCond,
    /** Call: push return address, go to target. */
    kCall,
    /** Return: pop frame and return address. */
    kRet,
    kHalt,
    /** No decode exists here (truncated or malformed instruction);
     *  reaching it raises the interpreter's fetch error, uncounted. */
    kTrap,
};

/** Computational-body selector (avoids re-deriving opcode class). */
enum class TBody : std::uint8_t {
    kNop = 0,
    kAlu2,
    /** `add accum, imm` — the accumulator machine's workhorse (every
     *  crispcc expression chain emits runs of it). Specialized so the
     *  walker skips the operand resolvers and the ALU switch; the
     *  handler computes exactly evalAlu(kAdd, accum, imm). */
    kAddAccImm,
    kAlu3,
    kCmp,
    kMov,
    kEnter,
    kLeave,
    /** Defensive: a body the translator could not classify. Executing
     *  it raises the interpreter's unhandled-opcode error *after*
     *  counting, preserving fault-point equivalence. */
    kBad,
};

/** Operand with its specifier pre-scaled to bytes where applicable. */
struct TOperand
{
    AddrMode mode = AddrMode::kNone;
    /** kStack/kInd: byte offset from SP (value * 4, wrapping).
     *  kAbs: byte address. kImm: the immediate's bit pattern. */
    std::uint32_t v = 0;

    bool operator==(const TOperand&) const = default;
};

/** One translated (possibly folded) instruction: a direct-threaded
 *  handler selector plus everything its handler needs, pre-resolved. */
struct TOp
{
    TKind kind = TKind::kTrap;
    TBody body = TBody::kNop;
    /** Architectural opcode of the body (histogram + events). */
    Opcode bodyOp = Opcode::kNop;
    /** Opcode of the attached/lone branch (kJmp/kCond/kCall only). */
    Opcode branchOp = Opcode::kJmp;
    /** A following branch was folded in: the body executes (and counts)
     *  first, then the branch counts as its own architectural
     *  instruction. */
    bool folded = false;
    /** kCond: transfer when the flag equals this value's truth sense
     *  (true for iftjmp, false for iffjmp). */
    bool condWhenTrue = false;
    bool shortForm = false;
    bool predictTaken = false;
    /** Target is read from memory at execution time (kIndAbs/kIndSp). */
    bool dynTarget = false;
    BranchMode bmode = BranchMode::kPcRel;

    TOperand dst;
    TOperand src;

    /** Address of this op (the carrier for folded pairs). */
    Addr pc = 0;
    /** Address of the attached/lone branch instruction. */
    Addr branchPc = 0;
    /** Fall-through address (one past the whole entry). */
    Addr seqPc = 0;
    /** Static taken-path address (kJmp/kCond/kCall). */
    Addr takenPc = 0;
    /** Return address pushed by kCall. */
    Addr callRetPc = 0;

    /** Frame bytes for enter/leave/return (value * 4, wrapping). */
    std::uint32_t frameBytes = 0;
    /** Indirect specifier: byte address (kIndAbs) or SP byte offset
     *  (kIndSp, pre-scaled). */
    std::uint32_t dynSpec = 0;
    /** Index into a side table. kTrap: Translation's trap messages.
     *  An op that reads an inline cache (kRet, or dynTarget): the
     *  engine's caches, numbered 0..icCount()-1 in table order. */
    std::uint32_t slot = 0;

    /** Table index of seqPc / takenPc (kNoIdx = leaves text). */
    std::uint32_t seqIdx = kNoIdx;
    std::uint32_t takenIdx = kNoIdx;

    /**
     * kChain only: sequential ops in the straight-line run starting
     * here (1..kTraceCap), ending just before a control/trap op or at
     * the cap. The fast engine's trace walker retires exactly this
     * many ops under a single cancel/budget poll before re-dispatching;
     * 0 for every control and trap op, which its own handler runs.
     */
    std::uint32_t trace = 0;

    bool operator==(const TOp&) const = default;
};

/**
 * Upper bound on a run's length. Bounds the fast engine's poll
 * overshoot: a run retires at most kTraceCap instructions past the
 * poll that admitted it, well inside the budget-overshoot bound the
 * engine tests pin. A longer straight line is split into capped runs,
 * each re-entered at its own poll.
 */
inline constexpr std::uint32_t kTraceCap = 128;

/**
 * The threaded-code image of one program under one fold policy: a flat
 * per-parcel TOp table mirroring the predecode cache's indexing.
 *
 * Holds references to the program and (optionally shared, warmed)
 * predecode cache; both must outlive the Translation.
 */
class Translation
{
  public:
    /**
     * Build the table. @p predecode may be null, in which case a
     * private cache is created; passing crispd's shared warmed cache
     * makes translation reuse every memoized decode.
     * @p hints optionally carries proven indirect-target sets
     * (copied); see IndirectHints for the guarantees.
     */
    Translation(const Program& prog, FoldPolicy policy,
                PredecodeCache* predecode = nullptr,
                const IndirectHints* hints = nullptr);

    Translation(const Translation&) = delete;
    Translation& operator=(const Translation&) = delete;

    const TOp* ops() const { return ops_.data(); }
    std::size_t size() const { return ops_.size(); }

    /** Table index of the program entry point. */
    std::uint32_t entryIndex() const { return indexOf(prog_.entry); }

    /** Table index of byte address @p a, kNoIdx when @p a is unaligned
     *  or outside the text segment. */
    std::uint32_t
    indexOf(Addr a) const
    {
        if (a % kParcelBytes != 0 || a < textBase_ || a >= textEnd_)
            return kNoIdx;
        return (a - textBase_) / kParcelBytes;
    }

    /** Fault message for a kTrap op's slot. */
    const char*
    trapMessage(std::uint32_t slot) const
    {
        return trapMsgs_[slot];
    }

    /** Inline caches an engine needs: one per op that reads one. */
    std::uint32_t icCount() const { return icCount_; }

    const Program& program() const { return prog_; }
    FoldPolicy policy() const { return policy_; }

    /**
     * Inline-cache seeds: (table index, likely target) for every
     * indirect exit with a hinted set or a self-predicted kIndAbs
     * table word. An engine may pre-fill its monomorphic caches from
     * these so a conforming first execution hits instead of missing.
     */
    const std::vector<std::pair<std::uint32_t, Addr>>&
    icSeeds() const
    {
        return icSeeds_;
    }

  private:
    void translateAt(TOp& t, Addr pc);
    void lowerDecoded(TOp& t, const DecodedInst& di);
    void lowerRaw(TOp& t, Addr pc, const Instruction& inst);
    void numberIndirects();
    void linkSuccessors();

    const Program& prog_;
    const FoldPolicy policy_;
    const Addr textBase_;
    const Addr textEnd_;
    std::unique_ptr<PredecodeCache> ownedPredecode_;
    PredecodeCache* predecode_;
    IndirectHints hints_;
    std::vector<TOp> ops_;
    std::vector<const char*> trapMsgs_;
    std::vector<std::pair<std::uint32_t, Addr>> icSeeds_;
    std::uint32_t icCount_ = 0;
};

} // namespace crisp

#endif // CRISP_SIM_TRANSLATE_HH
