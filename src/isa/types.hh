/**
 * @file
 * Basic machine types and constants for the CRISP-like architecture.
 *
 * The reconstructed CRISP ISA is a 32-bit, memory-to-memory machine with
 * 16-bit instruction parcels. Addresses are byte addresses; instructions
 * are aligned on 16-bit parcel boundaries; data words are 32-bit
 * little-endian.
 */

#ifndef CRISP_ISA_TYPES_HH
#define CRISP_ISA_TYPES_HH

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace crisp
{

/** Byte address. Parcel aligned when used as an instruction address. */
using Addr = std::uint32_t;

/** Architectural data word (32-bit, signed arithmetic by default). */
using Word = std::int32_t;

/** Unsigned view of a data word. */
using UWord = std::uint32_t;

/** One 16-bit instruction parcel. */
using Parcel = std::uint16_t;

/** Size of a parcel in bytes. */
inline constexpr Addr kParcelBytes = 2;

/** Size of a data word in bytes. */
inline constexpr Addr kWordBytes = 4;

/** Default base byte address of the text (code) segment. */
inline constexpr Addr kTextBase = 0x1000;

/**
 * Default base byte address of the data segment. Kept below 64 KiB so
 * that globals are reachable with the 16-bit absolute specifiers of
 * three-parcel instructions.
 */
inline constexpr Addr kDataBase = 0x8000;

/** Default memory size in bytes; the stack grows down from the top. */
inline constexpr Addr kDefaultMemBytes = 0x40000;

/**
 * Error raised for malformed programs, encodings or simulator misuse.
 * Corresponds to gem5's fatal(): a user-level error, not a simulator bug.
 */
class CrispError : public std::runtime_error
{
  public:
    explicit CrispError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** "0x" and the lower-case hex digits of @p a, as messages print an
 *  address. */
inline std::string
hexAddr(Addr a)
{
    char buf[2 + 8] = {'0', 'x'};
    char* end = std::to_chars(buf + 2, buf + sizeof buf, a, 16).ptr;
    return std::string(buf, end);
}

/** Sign-extend the low @p bits bits of @p value. */
constexpr std::int32_t
signExtend(std::uint32_t value, int bits)
{
    const std::uint32_t mask = (bits >= 32) ? ~0u : ((1u << bits) - 1u);
    const std::uint32_t sign = 1u << (bits - 1);
    const std::uint32_t low = value & mask;
    return static_cast<std::int32_t>((low ^ sign) - sign);
}

} // namespace crisp

#endif // CRISP_ISA_TYPES_HH
