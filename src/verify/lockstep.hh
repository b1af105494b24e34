/**
 * @file
 * Lockstep differential runner: retire the pipelined CrispCpu against
 * the functional Interpreter event-by-event.
 *
 * Both models emit the same architectural event stream through
 * ExecObserver (one onInstruction per executed instruction, one
 * onBranch per executed branch). The reference stream is recorded from
 * the interpreter; the pipeline is then ticked with a checking observer
 * that compares each retired event as it happens and stops at the first
 * mismatch, reporting the event index plus PC / opcode / register /
 * flag context.
 *
 * Hint fields (the static prediction bit, the short-form encoding flag)
 * are excluded from the comparison by design: faults injected into them
 * must remain invisible here.
 */

#ifndef CRISP_VERIFY_LOCKSTEP_HH
#define CRISP_VERIFY_LOCKSTEP_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/config.hh"
#include "sim/fault_hooks.hh"
#include "sim/stats.hh"

namespace crisp
{
class Program;
}

namespace crisp::verify
{

/** How (if at all) the pipeline diverged from the reference model. */
enum class Divergence : std::uint8_t {
    kNone = 0,
    /** A retired event differs from the reference stream. */
    kEventMismatch,
    /** The pipeline halted having retired fewer events. */
    kEventCountMismatch,
    /** Streams matched but final registers/memory differ. */
    kFinalStateMismatch,
    /** The pipeline raised a precise machine fault. */
    kMachineFault,
    /** The retire-time checker reported DIC metadata corruption. */
    kDicCorruptionDetected,
    /** The pipeline burned the cycle budget without halting. */
    kCycleLimit,
    /** The reference interpreter did not halt within
     *  LockstepOptions::maxSteps; the engine was not run. A correct
     *  program longer than the limit lands here too (the shipped dhry
     *  workload needs about 1.2M steps). */
    kReferenceStepLimit,
    /** The wall-clock watchdog cancelled the pipeline run
     *  (LockstepOptions::cancel, crisptorture --timeout-ms). */
    kTimeout,
};

std::string_view divergenceName(Divergence d);

struct LockstepReport
{
    Divergence kind = Divergence::kNone;
    /** Index into the architectural event stream (event kinds). */
    std::size_t eventIndex = 0;
    /** Human-readable expected-vs-actual context. */
    std::string detail;
    /** Pipeline statistics (cycles, fills, fault info, ...). */
    SimStats sim;
    /** Reference architectural instruction count. */
    std::uint64_t refInstructions = 0;

    bool ok() const { return kind == Divergence::kNone; }
    std::string toString() const;
};

struct LockstepOptions
{
    SimConfig cfg;
    /** Optional fault-injection hooks installed on the pipeline. */
    FaultHooks* hooks = nullptr;
    /**
     * Optional cooperative cancellation flag installed on the pipeline
     * (CrispCpu::setCancelFlag). When it fires mid-run the report kind
     * is Divergence::kTimeout.
     */
    const std::atomic<bool>* cancel = nullptr;
    /** Reference interpreter step limit. */
    std::uint64_t maxSteps = 1'000'000;
    /**
     * Pipeline cycle budget; 0 derives one from the reference
     * instruction count (generously, so only a genuine hang trips it).
     */
    std::uint64_t cycleBudget = 0;
};

/** Run @p prog on both models and compare. */
LockstepReport runLockstep(const Program& prog,
                           const LockstepOptions& opt = {});

} // namespace crisp::verify

#endif // CRISP_VERIFY_LOCKSTEP_HH
