/**
 * @file
 * Binary encoding of CRISP-like instructions into 16-bit parcels.
 *
 * Formats (first-parcel bit layout):
 *
 *   One-parcel branch (jmp / iftjmp / iffjmp), majors 0xC/0xD/0xE:
 *     [15:12] major   [11] predict   [10] 0   [9:0] signed word offset
 *   The signed 10-bit word offset gives a range of -1024 .. +1022 bytes,
 *   matching the paper exactly.
 *
 *   Everything else:
 *     [15:10] opcode (< 48 so the major nibble never reaches 0xC)
 *     [9]     long-form flag
 *   Short form (long = 0), one parcel:
 *     [8:4] a-field  (stack slot 0..30, 31 = Accum)
 *     [3:1] b-field  (slot 0..6 / 7 = Accum, or immediate 0..7)
 *     [0]   b-is-immediate
 *     enter/return reuse [8:0] as a 9-bit immediate word count.
 *   Long form (long = 1):
 *     Non-branch: [8] wide, [7:5] dst mode, [4:2] src mode.
 *       wide = 0: three parcels, 16-bit specifiers in parcels 1 and 2.
 *       wide = 1: five parcels, 32-bit LE specifiers in parcels 1-2, 3-4.
 *     Branch (jmp/iftjmp/iffjmp/call): [8] predict, [7:6] branch mode
 *       (0 = absolute, 1 = indirect-absolute, 2 = indirect-SP); parcels
 *       1-2 hold the 32-bit specifier. Always three parcels.
 *
 * The instruction length is decodable from the first parcel alone — the
 * property the PDU's decode window (QA..QE) and branch-adjust logic in
 * the paper's Figure 2 rely on.
 */

#ifndef CRISP_ISA_ENCODING_HH
#define CRISP_ISA_ENCODING_HH

#include <cstddef>
#include <vector>

#include "instruction.hh"
#include "opcode.hh"
#include "types.hh"

namespace crisp
{

/** Maximum instruction length in parcels. */
inline constexpr int kMaxParcels = 5;

/** Dedicated one-parcel branch majors (top nibble of parcel 0). */
inline constexpr Parcel kMajorJmp = 0xC;
inline constexpr Parcel kMajorIfT = 0xD;
inline constexpr Parcel kMajorIfF = 0xE;

/** Does @p parcel0 start a one-parcel branch (jmp / iftjmp / iffjmp)? */
inline bool
isShortBranch(Parcel parcel0)
{
    const int major = parcel0 >> 12;
    return major == kMajorJmp || major == kMajorIfT || major == kMajorIfF;
}

/**
 * Instruction length in parcels (1, 3 or 5), from the first parcel.
 * Inline: the PDU's decode-window gate asks this every cycle.
 */
inline int
instructionLength(Parcel parcel0)
{
    if (isShortBranch(parcel0))
        return 1;

    const auto op = static_cast<Opcode>(parcel0 >> 10);
    if (isBranch(op))
        return 3;

    const bool long_form = (parcel0 >> 9) & 1;
    if (!long_form)
        return 1;
    const bool wide = (parcel0 >> 8) & 1;
    return wide ? 5 : 3;
}

/**
 * Encode @p inst into @p out (room for kMaxParcels parcels).
 * @return the number of parcels written.
 * @throws CrispError if the instruction has no valid encoding.
 */
int encode(const Instruction& inst, Parcel* out);

/** Encode and append to a parcel vector. @return parcels written. */
int encodeAppend(const Instruction& inst, std::vector<Parcel>& image);

/** An instruction, or the static message of why its parcels hold none. */
struct DecodeResult
{
    Instruction inst;
    /** Null when inst is valid. */
    const char* error = nullptr;
};

/**
 * Decode one instruction starting at @p parcels. Never throws: a bad
 * opcode, operand mode or branch mode comes back as the error message.
 * The caller guarantees that instructionLength(parcels[0]) parcels are
 * readable.
 */
DecodeResult tryDecode(const Parcel* parcels);

/** tryDecode, throwing its error message as CrispError. */
Instruction decode(const Parcel* parcels);

} // namespace crisp

#endif // CRISP_ISA_ENCODING_HH
