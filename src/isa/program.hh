/**
 * @file
 * A linked CRISP program image: text parcels, initialized data, symbols.
 *
 * Produced by the assembler (or the crispcc code generator, which emits
 * assembly); consumed by the functional interpreter and the cycle-level
 * simulator, both of which fetch real parcels from a flat memory image.
 */

#ifndef CRISP_ISA_PROGRAM_HH
#define CRISP_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "encoding.hh"
#include "instruction.hh"
#include "types.hh"

namespace crisp
{

/** A named address or value in a program image. */
struct Symbol
{
    enum class Kind { kLabel, kGlobal, kLocalSlot };

    Kind kind = Kind::kLabel;
    std::uint32_t value = 0;
};

/** A fully linked program. */
class Program
{
  public:
    /** Text segment as parcels, starting at textBase(). */
    std::vector<Parcel> text;
    /** Initialized data bytes, starting at dataBase(). */
    std::vector<std::uint8_t> data;

    Addr textBase = kTextBase;
    Addr dataBase = kDataBase;
    /** Entry point (byte address into the text segment). */
    Addr entry = kTextBase;
    /** Total memory image size; SP starts at the top. */
    Addr memBytes = kDefaultMemBytes;

    std::map<std::string, Symbol> symbols;

    /** Byte address one past the last text parcel. */
    Addr
    textEnd() const
    {
        return textBase + static_cast<Addr>(text.size()) * kParcelBytes;
    }

    bool
    inText(Addr a) const
    {
        return a >= textBase && a < textEnd();
    }

    /** Fetch the parcel at byte address @p a (must be parcel aligned). */
    Parcel
    parcelAt(Addr a) const
    {
        if (a % kParcelBytes != 0)
            throw CrispError("unaligned parcel fetch");
        if (!inText(a))
            throw CrispError("parcel fetch outside text segment");
        return text[(a - textBase) / kParcelBytes];
    }

    /**
     * Decode the instruction at byte address @p a, or the static
     * message fetch() throws: @p a is unaligned or outside the text
     * segment, the instruction runs off its end, or it does not decode.
     */
    DecodeResult
    tryFetch(Addr a) const
    {
        if (a % kParcelBytes != 0)
            return {{}, "unaligned parcel fetch"};
        if (!inText(a))
            return {{}, "parcel fetch outside text segment"};
        const std::size_t idx = (a - textBase) / kParcelBytes;
        if (text.size() - idx <
            static_cast<std::size_t>(instructionLength(text[idx]))) {
            return {{}, "parcel fetch outside text segment"};
        }
        return tryDecode(text.data() + idx);
    }

    /** Decode the instruction at byte address @p a. */
    Instruction
    fetch(Addr a) const
    {
        const DecodeResult r = tryFetch(a);
        if (r.error != nullptr)
            throw CrispError(r.error);
        return r.inst;
    }

    /** The little-endian load-image word at byte address @p a, or
     *  nothing when it is not wholly inside the data segment. */
    std::optional<Word>
    dataWord(Addr a) const
    {
        if (a < dataBase || a - dataBase > data.size() ||
            data.size() - (a - dataBase) < kWordBytes) {
            return std::nullopt;
        }
        const std::size_t off = a - dataBase;
        return static_cast<Word>(
            static_cast<UWord>(data[off]) |
            (static_cast<UWord>(data[off + 1]) << 8) |
            (static_cast<UWord>(data[off + 2]) << 16) |
            (static_cast<UWord>(data[off + 3]) << 24));
    }

    /** Look up a symbol address/value by name. */
    std::optional<std::uint32_t>
    lookup(const std::string& name) const
    {
        const auto it = symbols.find(name);
        if (it == symbols.end())
            return std::nullopt;
        return it->second.value;
    }

    /**
     * Append an encoded instruction to the text segment.
     * @return the byte address the instruction was placed at.
     */
    Addr
    append(const Instruction& inst)
    {
        const Addr at = textEnd();
        encodeAppend(inst, text);
        return at;
    }

    /** Disassemble the whole text segment, one instruction per line. */
    std::string disassemble() const;

    /** Static count of instructions in the text segment. */
    int staticInstructionCount() const;

    /** Static histogram of instruction lengths in parcels (1/3/5). */
    std::map<int, int> staticLengthHistogram() const;
};

} // namespace crisp

#endif // CRISP_ISA_PROGRAM_HH
