/**
 * @file
 * The Decoded Instruction Cache: 32 x 192-bit entries in the real chip.
 *
 * Direct mapped; the low bits of the (parcel-aligned) instruction
 * address select the entry, exactly as the paper describes the IR-stage
 * Next-PC register: "the low five bits are used to address the Decoded
 * Instruction Cache".
 */

#ifndef CRISP_SIM_DIC_HH
#define CRISP_SIM_DIC_HH

#include <cstdint>
#include <vector>

#include "decoded.hh"
#include "isa/types.hh"

namespace crisp
{

class DecodedCache
{
  public:
    explicit DecodedCache(int entries)
        : entries_(checkedEntryCount(entries))
    {}

    /** Look up the entry for instruction address @p pc. */
    const DecodedInst*
    lookup(Addr pc) const
    {
        const Slot& s = entries_[index(pc)];
        if (s.valid && s.di.pc == pc)
            return &s.di;
        return nullptr;
    }

    /** Install a decoded entry (overwrites any conflicting one). */
    void
    fill(const DecodedInst& di)
    {
        Slot& s = entries_[index(di.pc)];
        s.valid = true;
        s.di = di;
    }

    int size() const { return static_cast<int>(entries_.size()); }

  private:
    struct Slot
    {
        bool valid = false;
        DecodedInst di;
    };

    static std::size_t
    checkedEntryCount(int entries)
    {
        if (entries <= 0 || (entries & (entries - 1)) != 0)
            throw CrispError("DIC entry count must be a power of two");
        return static_cast<std::size_t>(entries);
    }

    std::size_t
    index(Addr pc) const
    {
        return (pc / kParcelBytes) & (entries_.size() - 1);
    }

    std::vector<Slot> entries_;
};

} // namespace crisp

#endif // CRISP_SIM_DIC_HH
