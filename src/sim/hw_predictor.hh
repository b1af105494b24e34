/**
 * @file
 * In-pipeline hardware branch predictor.
 *
 * CRISP shipped with the static bit only; the paper evaluated one, two
 * and three bits of dynamic history before rejecting them ("Given the
 * increased complexity of the dynamic strategies, the use of a single
 * static prediction bit in CRISP seems to be a reasonable choice").
 * This class lets the simulator run the road not taken: a small
 * direct-mapped history table consulted at issue and trained at
 * branch resolution, so the end-to-end cycle cost of each scheme can
 * be compared — not just trace accuracy (see
 * bench/ablation_hw_predictor).
 */

#ifndef CRISP_SIM_HW_PREDICTOR_HH
#define CRISP_SIM_HW_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "config.hh"
#include "isa/types.hh"

namespace crisp
{

class HwPredictor
{
  public:
    HwPredictor(PredictorKind kind, int entries)
        : kind_(kind),
          table_(checkedEntries(kind, entries),
                 kind == PredictorKind::kDynamic2 ? 2 : 1)
    {}

    /**
     * Predict the direction of the conditional branch at @p branch_pc
     * whose compiler bit is @p static_bit.
     */
    bool
    predict(Addr branch_pc, bool static_bit) const
    {
        switch (kind_) {
          case PredictorKind::kStaticBit:
            return static_bit;
          case PredictorKind::kDynamic1:
            return table_[index(branch_pc)] >= 1;
          case PredictorKind::kDynamic2:
            return table_[index(branch_pc)] >= 2;
        }
        return static_bit;
    }

    /** Train with a resolved outcome. */
    void
    update(Addr branch_pc, bool taken)
    {
        if (kind_ == PredictorKind::kStaticBit)
            return;
        std::uint8_t& c = table_[index(branch_pc)];
        if (kind_ == PredictorKind::kDynamic1) {
            c = taken ? 1 : 0;
            return;
        }
        if (taken)
            c = c < 3 ? c + 1 : 3;
        else
            c = c > 0 ? c - 1 : 0;
    }

  private:
    static std::size_t
    checkedEntries(PredictorKind kind, int entries)
    {
        if (kind == PredictorKind::kStaticBit)
            return 1;
        if (entries <= 0 || (entries & (entries - 1)) != 0)
            throw CrispError("predictor entries must be a power of two");
        return static_cast<std::size_t>(entries);
    }

    std::size_t
    index(Addr pc) const
    {
        return (pc / kParcelBytes) & (table_.size() - 1);
    }

    PredictorKind kind_;
    /** One saturating counter per slot, powered on weakly taken. */
    std::vector<std::uint8_t> table_;
};

} // namespace crisp

#endif // CRISP_SIM_HW_PREDICTOR_HH
