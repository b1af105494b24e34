/**
 * @file
 * Whole-program predecode cache.
 *
 * Program text is immutable for the lifetime of a simulation, so for a
 * fixed FoldPolicy the canonical decode at a parcel address is a pure
 * function of the text: FoldDecoder::decodeAt over a window running to
 * the end of the text segment. This cache memoizes that function into a
 * flat per-parcel table, turning the dominant per-cycle cost of the PDR
 * stage (and of the retire-time golden re-decode used by
 * SimConfig::checkDecode) into an array lookup.
 *
 * The memoized entry is exactly the decode the PDU would produce from
 * any sufficiently large window: decodeAt reads at most
 * FoldDecoder::windowNeed(parcel0) parcels, so once that many are
 * visible (or the window ends at the text segment's end) the result no
 * longer depends on the window size. The PDU therefore keeps its
 * cycle-accurate gating on queue occupancy and only consults the table
 * once a decode would have been possible anyway — timing is unchanged,
 * decode work is done once per (address, policy) instead of once per
 * visit.
 *
 * A decode error is memoized the same way: an address whose text does
 * not decode keeps decodeAt's message in its entry, and the PDU and the
 * retire-time checker raise it when they reach the address. Every
 * table therefore warms completely, mid-instruction parcels included.
 *
 * Tables are built lazily, one per FoldPolicy, so a simulation that
 * never re-decodes under a second policy (checkDecode's unfolded-golden
 * fallback) pays nothing for it.
 */

#ifndef CRISP_SIM_PREDECODE_HH
#define CRISP_SIM_PREDECODE_HH

#include <vector>

#include "config.hh"
#include "decoded.hh"
#include "isa/program.hh"

namespace crisp
{

class PredecodeCache
{
  public:
    /** @p prog must outlive the cache (it holds a reference). */
    explicit PredecodeCache(const Program& prog)
        : prog_(prog), textBase_(prog.textBase), textEnd_(prog.textEnd())
    {}

    PredecodeCache(const PredecodeCache&) = delete;
    PredecodeCache& operator=(const PredecodeCache&) = delete;

    struct Entry
    {
        DecodedInst di{};
        /** False: no decode exists at this address, because the
         *  instruction runs off the end of the text segment or, when
         *  error is set, its encoding does not decode. */
        bool valid = false;
        bool computed = false;
        /** FoldDecoder::decodeAt's message for an address that does not
         *  decode (e.g. a bad opcode or an indirect conditional
         *  branch); the PDU and the retire-time checker raise it as a
         *  CrispError when they reach the address. */
        const char* error = nullptr;
    };

    /**
     * The canonical decode at @p pc under @p policy, memoized. A decode
     * error is memoized too, as the entry's error, so this never throws
     * for an aligned address inside the text segment.
     *
     * @throws CrispError when @p pc is unaligned or outside the text
     * segment.
     */
    const Entry&
    at(Addr pc, FoldPolicy policy)
    {
        if (pc % kParcelBytes != 0 || pc < textBase_ || pc >= textEnd_)
            throw CrispError("predecode: address outside text segment");
        auto& table = tables_[static_cast<std::size_t>(policy)];
        if (table.empty())
            table.resize(prog_.text.size());
        Entry& e = table[(pc - textBase_) / kParcelBytes];
        if (!e.computed)
            compute(e, pc, policy);
        return e;
    }

    const Program& program() const { return prog_; }

    /**
     * Eagerly compute every parcel entry for @p policy, making that
     * table read-only from then on — the precondition for sharing one
     * cache across concurrent simulations (crispd's program registry
     * hands the same warmed cache to every worker running the same
     * program × policy). Addresses without a decode memoize as
     * valid=false like the lazy path, so every program's table warms.
     */
    void warmAll(FoldPolicy policy);

  private:
    void compute(Entry& e, Addr pc, FoldPolicy policy);

    const Program& prog_;
    /** Text bounds, hoisted out of the per-lookup fast path. */
    const Addr textBase_;
    const Addr textEnd_;
    /** One lazily-allocated table per FoldPolicy value. */
    std::vector<Entry> tables_[3];
};

} // namespace crisp

#endif // CRISP_SIM_PREDECODE_HH
