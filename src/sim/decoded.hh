/**
 * @file
 * The canonical decoded instruction form held in the Decoded Instruction
 * Cache, and the folding decoder that produces it.
 *
 * A DIC entry corresponds to the paper's 192-bit canonical form: the
 * decoded computational operation, a Next-PC field, an Alternate
 * Next-PC field for conditional branches, and the dedicated
 * "modifies-condition-code" bit carried down the EU pipeline.
 *
 * Branch Folding happens here: when the PDU decodes a one- or
 * three-parcel non-branch instruction followed by a one-parcel branch,
 * the two become a single DecodedInst. The branch then never occupies an
 * Execution Unit pipeline slot.
 */

#ifndef CRISP_SIM_DECODED_HH
#define CRISP_SIM_DECODED_HH

#include <optional>
#include <span>
#include <string>

#include "config.hh"
#include "isa/encoding.hh"
#include "isa/instruction.hh"
#include "isa/types.hh"

namespace crisp
{

/** Control transfer attached to a decoded entry. */
enum class Ctl : std::uint8_t {
    kSeq = 0,   //!< fall through to seqPc
    kJmp,       //!< unconditional, static target
    kCondT,     //!< branch to takenPc if the flag is true
    kCondF,     //!< branch to takenPc if the flag is false
    kCall,      //!< push return address, go to static target
    kRet,       //!< pop return address (target read from the stack)
    kIndirect,  //!< unconditional, target read from memory
    kHalt,      //!< stop the machine
};

/**
 * A decoded (possibly folded) instruction: one DIC entry. The one-byte
 * fields sit together so no padding falls between fields: 68 bytes,
 * which keeps a predecode-table entry (this, two flags and an error
 * pointer) at 80 bytes. Cold cycle runs of short programs fill fresh
 * entries for most of their decodes; with 88-byte entries they ran
 * 15–20% slower on an x86-64 host.
 */
struct DecodedInst
{
    /** Address of the (carrier) instruction. */
    Addr pc = 0;

    /** Computational part. For a lone branch entry this is a nop. */
    Instruction body;

    /** True when this entry is a branch that could not be folded and
     *  therefore occupies an EU pipeline slot by itself. */
    bool loneBranch = false;

    /** True when a following branch was folded into this entry. */
    bool folded = false;

    Ctl ctl = Ctl::kSeq;

    /** Static prediction bit of the attached conditional branch. */
    bool predictTaken = false;

    /** Sequential successor: address past the entire entry. */
    Addr seqPc = 0;

    /** Static branch target (kJmp / kCondT / kCondF / kCall). */
    Addr takenPc = 0;

    /** Address of the attached branch instruction itself. */
    Addr branchPc = 0;

    /** Opcode of the attached branch (for statistics and traces). */
    Opcode branchOp = Opcode::kJmp;

    /** One-parcel branch encoding? (for the 95%-short-format stat). */
    bool branchShortForm = false;

    /** The dedicated decoded bit: body modifies the condition flag. */
    bool writesCc = false;

    /** Indirect target addressing (kIndirect). */
    BranchMode bmode = BranchMode::kAbs;
    std::uint32_t spec = 0;

    /** Return address pushed by kCall. */
    Addr callRetPc = 0;

    /** Total parcels consumed from the instruction stream. */
    int totalParcels = 1;

    bool operator==(const DecodedInst&) const = default;

    bool
    hasCondBranch() const
    {
        return ctl == Ctl::kCondT || ctl == Ctl::kCondF;
    }

    /** Does the attached conditional branch transfer for flag value
     *  @p flag? */
    bool
    condTaken(bool flag) const
    {
        return ctl == Ctl::kCondT ? flag : !flag;
    }

    /** Architectural instruction count represented by this entry. */
    int
    archCount() const
    {
        return folded ? 2 : 1;
    }

    std::string toString() const;
};

/**
 * FoldDecoder::decodeAt's result: an entry, or the static message of
 * why the text at the address has none, or neither while the window is
 * too small to tell.
 */
struct FoldDecode
{
    std::optional<DecodedInst> di;
    /** Null unless the instruction is visible and does not decode, or
     *  the pipeline cannot issue it (an indirect branch that is not an
     *  unconditional jump). */
    const char* error = nullptr;
};

/**
 * The PDU's decode-and-fold stage, corresponding to the PDR stage logic
 * of the paper's Figure 2 (the tpcmx offset multiplexor, the branch
 * adjust, and the Next-PC selection).
 */
class FoldDecoder
{
  public:
    explicit FoldDecoder(FoldPolicy policy) : policy_(policy) {}

    /**
     * How many parcels must be visible in the decode window to decode
     * the instruction whose first parcel is @p parcel0, including the
     * one-parcel fold lookahead where applicable.
     */
    int windowNeed(Parcel parcel0) const;

    /**
     * The PDR window gate: does decodeAt yield an entry from a window
     * of @p parcels parcels that starts with @p parcel0? It does once
     * the instruction is visible and either its fold lookahead is too
     * or the window ends the text (@p at_end). decodeAt reads at most
     * windowNeed(parcel0) parcels, so once the gate opens its result no
     * longer depends on the window size.
     */
    bool
    windowReady(Parcel parcel0, int parcels, bool at_end) const
    {
        const int len = instructionLength(parcel0);
        return parcels >= len &&
               (at_end || parcels >= windowNeed(parcel0, len));
    }

    /**
     * Decode one (possibly folded) entry.
     *
     * @param pc      byte address of window[0]
     * @param window  parcels available for decoding, starting at pc
     * @param at_end  true if window ends exactly at the end of text, so
     *                a missing fold-lookahead parcel means "no branch
     *                follows" rather than "wait for more parcels"
     * @return the entry (totalParcels is the number of parcels
     *         consumed) or its error; neither if the window is too
     *         small (caller should refill). Never throws.
     */
    FoldDecode
    decodeAt(Addr pc, std::span<const Parcel> window, bool at_end) const;

    FoldPolicy policy() const { return policy_; }

  private:
    /** windowNeed with instructionLength(parcel0) already in hand. */
    int windowNeed(Parcel parcel0, int len) const;

    FoldPolicy policy_;
};

} // namespace crisp

#endif // CRISP_SIM_DECODED_HH
