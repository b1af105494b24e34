/**
 * @file
 * The architectural event stream the lockstep runners compare (cycle
 * pipeline vs. interpreter in lockstep.cc, fast engine vs. interpreter
 * in enginediff.cc), and its recorder.
 *
 * Every engine emits the same stream through ExecObserver: one
 * onInstruction per executed instruction, one onBranch per executed
 * branch. The interpreter's stream is the reference. reference.hh holds
 * it one bounded window at a time and checks an engine's stream against
 * it as the engine retires; RefRecorder keeps a whole stream, for
 * those windows and for tests.
 *
 * Hint fields (the static prediction bit, the short-form encoding
 * flag) are excluded from the comparison by design: faults injected
 * into them must remain invisible here.
 */

#ifndef CRISP_VERIFY_EVENTSTREAM_HH
#define CRISP_VERIFY_EVENTSTREAM_HH

#include <sstream>
#include <string>
#include <vector>

#include "interp/trace.hh"

namespace crisp::verify
{

/** One architectural event: an instruction retirement or a branch. */
struct Ev
{
    bool branch = false;
    Addr pc = 0;
    Opcode op = Opcode::kNop;
    bool conditional = false;
    bool taken = false;
    Addr target = 0;
    Addr fallThrough = 0;

    bool
    operator==(const Ev&) const = default;

    std::string
    toString() const
    {
        std::ostringstream os;
        os << (branch ? "branch " : "inst ") << opcodeName(op) << " @0x"
           << std::hex << pc;
        if (branch) {
            os << std::dec << (conditional ? " cond" : " uncond");
            if (taken)
                os << " taken->0x" << std::hex << target;
            else
                os << " not-taken (target 0x" << std::hex << target
                   << ")";
        }
        return os.str();
    }
};

/** Records every event it observes. */
class RefRecorder : public ExecObserver
{
  public:
    void
    onInstruction(Addr pc, Opcode op) override
    {
        events.push_back(Ev{false, pc, op, false, false, 0, 0});
    }

    void
    onBranch(const BranchEvent& ev) override
    {
        events.push_back(Ev{true, ev.pc, ev.op, ev.conditional,
                            ev.taken, ev.target, ev.fallThrough});
    }

    std::vector<Ev> events;
};

} // namespace crisp::verify

#endif // CRISP_VERIFY_EVENTSTREAM_HH
