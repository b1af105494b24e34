/**
 * @file
 * What both lockstep runners share (the cycle pipeline in lockstep.cc,
 * the fast engine in enginediff.cc): the reference interpreter's run
 * with its step limit, the bounded window of its event stream that an
 * engine's stream is checked against, the default engine budgets, the
 * engine-state context every verdict carries, and the final-state
 * comparison against the interpreter.
 */

#ifndef CRISP_VERIFY_REFERENCE_HH
#define CRISP_VERIFY_REFERENCE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "eventstream.hh"
#include "interp/interpreter.hh"
#include "lockstep.hh"

namespace crisp::verify
{

/**
 * The interpreter's run of a program: the event stream and final state
 * an engine under test must reproduce.
 *
 * The run goes to its end before the engine starts, so its length, its
 * fault and its final state are known up front. Its events are held one
 * window at a time, the way CRISP's PDU runs ahead of the EU through a
 * bounded queue: the first kWindowSteps instructions are recorded as
 * the run goes. When the run outlasts them, a copy of the interpreter
 * taken at the window's end replays the rest, one window per refill(),
 * so a long run holds a few hundred KiB of events however long it is.
 */
struct Reference
{
    /** Instructions per window. Each emits at most two 20-byte events,
     *  so a window holds at most 640 KiB, one halt event aside. */
    static constexpr std::uint64_t kWindowSteps = std::uint64_t{1} << 14;

    explicit Reference(const Program& prog) : interp(prog) {}

    /** Runs to the end first; its result and final state are the
     *  reference's. */
    Interpreter interp;
    /** The interpreter raised a machine fault; its run ended there. */
    bool faulted = false;
    std::string faultReason;
    /** Events in the whole run. */
    std::size_t events = 0;
    /** The window held now: events [base, base + window.events.size())
     *  of the run. */
    RefRecorder window;
    std::size_t base = 0;
    /** The run as it stands at the window's end; empty when the first
     *  window holds the whole run. */
    std::optional<Interpreter> replay;

    /** Replace the window with the next one. Returns false, leaving the
     *  window as it is, when it already ends the run. */
    bool refill();
};

/**
 * Run @p ref's interpreter for at most @p max_steps instructions,
 * keeping the first window of its events. A machine fault is kept in
 * @p ref, not thrown. Sets rep.refInstructions. Returns false, with
 * @p rep holding the kReferenceStepLimit verdict, when the interpreter
 * neither halted nor faulted within the limit.
 */
bool runReference(Reference& ref, std::uint64_t max_steps,
                  LockstepReport& rep);

/** The cycle pipeline's budget when LockstepOptions::cycleBudget is 0:
 *  48 cycles per reference instruction plus 50,000, so only a genuine
 *  hang trips it. crisptorture's oracle leg runs under it too. */
constexpr std::uint64_t
defaultCycleBudget(std::uint64_t ref_instructions)
{
    return ref_instructions * 48 + 50'000;
}

/** The fast engine's instruction budget when cycleBudget is 0: the
 *  reference count plus a margin that absorbs superblock-boundary
 *  overshoot. */
constexpr std::uint64_t
defaultInstructionBudget(std::uint64_t ref_instructions)
{
    return ref_instructions + 50'000;
}

/**
 * Compares an engine's stream against the reference's as the engine
 * retires, and latches the first mismatch. It reads the reference one
 * window at a time and asks for the next at each window's end; index
 * counts events over the whole run.
 */
class CheckingObserver : public ExecObserver
{
  public:
    explicit CheckingObserver(Reference& ref) : ref_(ref) { view(); }

    void
    onInstruction(Addr pc, Opcode op) override
    {
        check(Ev{false, pc, op, false, false, 0, 0});
    }

    void
    onBranch(const BranchEvent& ev) override
    {
        check(Ev{true, ev.pc, ev.op, ev.conditional, ev.taken,
                 ev.target, ev.fallThrough});
    }

    bool mismatch = false;
    std::size_t index = 0;
    std::string detail;

  private:
    void
    check(const Ev& got)
    {
        if (mismatch)
            return;
        if (next_ == end_) {
            if (!ref_.refill()) {
                mismatch = true;
                detail = "pipeline retired an event past the end of the "
                         "reference stream: " +
                         got.toString();
                return;
            }
            view();
        }
        if (!(*next_ == got)) {
            mismatch = true;
            detail = "expected " + next_->toString() + ", got " +
                     got.toString();
            return;
        }
        ++next_;
        ++index;
    }

    void
    view()
    {
        next_ = ref_.window.events.data();
        end_ = next_ + ref_.window.events.size();
    }

    Reference& ref_;
    const Ev* next_ = nullptr;
    const Ev* end_ = nullptr;
};

/** An engine's architectural state after its run. */
struct EngineState
{
    /** Tag of the context line: "sim" or "fast". */
    const char* name;
    Word accum;
    bool flag;
    Addr sp;
    Addr nextPc;
    const MemoryImage& memory;

    /** " [name: accum=.. flag=.. sp=0x.. next-pc=0x..]", appended to
     *  the detail of every verdict reached after the engine ran. */
    std::string context() const;
};

/**
 * Compare @p eng's final state with the reference's: accum, flag, SP,
 * rep.sim.apparent against the instruction count, then @p extra (the
 * caller's own differences, already formatted), then memory. Any
 * difference sets @p rep to kFinalStateMismatch.
 */
void checkFinalState(const Reference& ref, const EngineState& eng,
                     const std::string& extra, LockstepReport& rep);

} // namespace crisp::verify

#endif // CRISP_VERIFY_REFERENCE_HH
