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
        /** False: no decode exists at this address (an instruction
         *  truncated by the end of the text segment). */
        bool valid = false;
        bool computed = false;
    };

    /**
     * The canonical decode at @p pc under @p policy, memoized.
     *
     * @p pc must be parcel aligned and inside the text segment.
     * Decode errors (e.g. an indirect conditional branch) propagate as
     * CrispError and are deliberately not memoized: every touch of a
     * malformed address fails, as FoldDecoder::decodeAt does.
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
     * program × policy). Invalid decodes memoize as valid=false like
     * the lazy path.
     *
     * @return true when every entry was memoized; false when some
     * address threw a decode error (such a table stays partially lazy
     * and MUST NOT be shared across threads — give each run a private
     * cache instead).
     */
    bool warmAll(FoldPolicy policy);

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
