/**
 * @file
 * Delayed-branch baseline machine.
 *
 * The comparison target of the paper's case E and its "Comparison to
 * Other Schemes" section: a machine where every branch occupies a
 * pipeline slot and is followed by one architecturally-exposed delay
 * slot that executes regardless of the branch direction (MANIAC / IBM
 * 801 / RISC-I / MIPS style).
 *
 * Programs must be compiled with CompileOptions::delaySlots = true,
 * which inserts a useful instruction (or a nop) after every jmp /
 * iftjmp / iffjmp.
 *
 * Timing model (idealized, for relative branch-cost comparisons):
 *  - one instruction per cycle, including delay-slot instructions and
 *    filler nops;
 *  - a conditional branch immediately preceded by its compare stalls
 *    one cycle for the flag interlock;
 *  - no instruction-cache model (the CRISP simulator's DIC effects are
 *    deliberately excluded so the comparison isolates branch cost).
 */

#ifndef CRISP_BASELINE_DELAYED_HH
#define CRISP_BASELINE_DELAYED_HH

#include <cstdint>
#include <string>

#include "interp/memory_image.hh"
#include "isa/program.hh"

namespace crisp
{

struct DelayedStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** Filler nops executed (unfilled delay slots). */
    std::uint64_t nopSlots = 0;
    /** Flag-interlock stalls on conditional branches. */
    std::uint64_t interlockStalls = 0;
    /** Annulled (squashed) delay slots, annulling machines only. */
    std::uint64_t annulledSlots = 0;
    std::uint64_t branches = 0;
    bool halted = false;

    double
    cpi() const
    {
        return instructions
                   ? static_cast<double>(cycles) /
                         static_cast<double>(instructions)
                   : 0.0;
    }
};

/** Executor with one-delay-slot branch semantics. */
class DelayedBranchCpu
{
  public:
    /**
     * @param annulling interpret the prediction bit of conditional
     *        branches as "annul the slot when not taken" (squashing
     *        delayed branches; requires code compiled with
     *        CompileOptions::annulSlots). An annulled slot costs one
     *        bubble cycle.
     */
    explicit DelayedBranchCpu(const Program& prog,
                              bool annulling = false);

    const DelayedStats& run(std::uint64_t max_steps = 500'000'000);

    /** The next instruction to execute; after a fault out of run(),
     *  the one that faulted (for a fault in a delay slot, its branch). */
    Addr pc() const { return pc_; }
    Addr sp() const { return sp_; }
    Word accum() const { return accum_; }
    bool flag() const { return flag_; }
    Word wordAt(const std::string& symbol) const;
    const MemoryImage& memory() const { return mem_; }
    const DelayedStats& stats() const { return stats_; }

  private:
    Word readOperand(const Operand& o) const;
    void writeOperand(const Operand& o, Word v);
    Addr operandAddress(const Operand& o) const;

    /** Execute the non-control instruction at @p pc. */
    void executePlain(const Instruction& inst);

    /** Owned copy: the CPU's lifetime is self-contained. */
    Program prog_;
    MemoryImage mem_;
    Addr pc_ = 0;
    Addr sp_ = 0;
    Word accum_ = 0;
    bool flag_ = false;
    bool halted_ = false;
    DelayedStats stats_;
    bool annulling_ = false;
    /** Instructions executed since the last compare retired. */
    std::uint64_t sinceCmp_ = 1000;
};

} // namespace crisp

#endif // CRISP_BASELINE_DELAYED_HH
