/**
 * @file
 * What both lockstep runners share (the cycle pipeline in lockstep.cc,
 * the fast engine in enginediff.cc): the reference interpreter's run
 * with its step limit, the engine-state context every verdict carries,
 * and the final-state comparison against the interpreter.
 */

#ifndef CRISP_VERIFY_REFERENCE_HH
#define CRISP_VERIFY_REFERENCE_HH

#include <cstdint>
#include <string>

#include "eventstream.hh"
#include "interp/interpreter.hh"
#include "lockstep.hh"

namespace crisp::verify
{

/** The interpreter's run of a program: the event stream and final
 *  state an engine under test must reproduce. */
struct Reference
{
    explicit Reference(const Program& prog) : interp(prog) {}

    Interpreter interp;
    RefRecorder recorder;
    /** The interpreter raised a machine fault; its run ended there. */
    bool faulted = false;
    std::string faultReason;
};

/**
 * Run @p ref's interpreter for at most @p max_steps instructions,
 * recording its events. A machine fault is kept in @p ref, not thrown.
 * Sets rep.refInstructions. Returns false, with @p rep holding the
 * kReferenceStepLimit verdict, when the interpreter neither halted nor
 * faulted within the limit.
 */
bool runReference(Reference& ref, std::uint64_t max_steps,
                  LockstepReport& rep);

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
