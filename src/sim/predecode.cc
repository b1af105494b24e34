/**
 * @file
 * Predecode cache implementation.
 */

#include "predecode.hh"

#include <span>

namespace crisp
{

void
PredecodeCache::compute(Entry& e, Addr pc, FoldPolicy policy)
{
    const std::size_t idx = (pc - prog_.textBase) / kParcelBytes;
    const std::span<const Parcel> window(prog_.text.data() + idx,
                                         prog_.text.size() - idx);
    const FoldDecoder dec(policy);
    // The maximal window ends exactly at the end of text, so at_end is
    // always true here; decodeAt yields neither an entry nor an error
    // only for an instruction whose encoding runs off the segment.
    const FoldDecode d = dec.decodeAt(pc, window, /*at_end=*/true);
    e.valid = d.di.has_value();
    if (d.di)
        e.di = *d.di;
    e.error = d.error;
    e.computed = true;
}

void
PredecodeCache::warmAll(FoldPolicy policy)
{
    for (Addr pc = textBase_; pc < textEnd_; pc += kParcelBytes)
        at(pc, policy);
}

} // namespace crisp
