/**
 * @file
 * Program loading into a flat memory image.
 */

#include "memory_image.hh"

namespace crisp
{

void
MemoryImage::load(const Program& prog)
{
    bytes_.assign(prog.memBytes, 0);

    const Addr text_bytes =
        static_cast<Addr>(prog.text.size()) * kParcelBytes;
    if (prog.textBase + text_bytes > prog.memBytes)
        throw CrispError("text segment does not fit in memory");
    for (std::size_t i = 0; i < prog.text.size(); ++i) {
        const Parcel p = prog.text[i];
        const Addr a = prog.textBase + static_cast<Addr>(i) * kParcelBytes;
        bytes_[a] = static_cast<std::uint8_t>(p);
        bytes_[a + 1] = static_cast<std::uint8_t>(p >> 8);
    }

    if (prog.dataBase + prog.data.size() > prog.memBytes)
        throw CrispError("data segment does not fit in memory");
    for (std::size_t i = 0; i < prog.data.size(); ++i)
        bytes_[prog.dataBase + i] = prog.data[i];
}

void
MemoryImage::outOfRange(Addr a)
{
    throw CrispError("memory access out of range: " + hexAddr(a));
}

} // namespace crisp
