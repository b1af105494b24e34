/**
 * @file
 * The reference run and final-state comparison of the lockstep runners.
 */

#include "reference.hh"

#include <algorithm>
#include <sstream>

namespace crisp::verify
{

bool
runReference(Reference& ref, std::uint64_t max_steps,
             LockstepReport& rep)
{
    try {
        ref.interp.run(max_steps, &ref.recorder);
    } catch (const CrispError& e) {
        ref.faulted = true;
        ref.faultReason = e.what();
    }
    const InterpResult& r = ref.interp.result();
    rep.refInstructions = r.instructions;
    if (ref.faulted || r.halted)
        return true;
    rep.kind = Divergence::kReferenceStepLimit;
    rep.detail = "reference interpreter did not halt within " +
                 std::to_string(max_steps) + " steps";
    return false;
}

std::string
EngineState::context() const
{
    std::ostringstream os;
    os << " [" << name << ": accum=" << accum
       << " flag=" << (flag ? 1 : 0) << " sp=0x" << std::hex << sp
       << " next-pc=0x" << nextPc << std::dec << "]";
    return os.str();
}

void
checkFinalState(const Reference& ref, const EngineState& eng,
                const std::string& extra, LockstepReport& rep)
{
    const Interpreter& interp = ref.interp;
    std::ostringstream diff;
    if (eng.accum != interp.accum()) {
        diff << "accum " << eng.accum << " != " << interp.accum()
             << "; ";
    }
    if (eng.flag != interp.flag())
        diff << "flag " << eng.flag << " != " << interp.flag() << "; ";
    if (eng.sp != interp.sp()) {
        diff << "sp 0x" << std::hex << eng.sp << " != 0x"
             << interp.sp() << std::dec << "; ";
    }
    const std::uint64_t ref_instructions = interp.result().instructions;
    if (rep.sim.apparent != ref_instructions) {
        diff << "apparent " << rep.sim.apparent
             << " != " << ref_instructions << "; ";
    }
    diff << extra;
    const auto& ms = eng.memory.bytes();
    const auto& mi = interp.memory().bytes();
    if (ms.size() != mi.size()) {
        diff << "memory size " << ms.size() << " != " << mi.size()
             << "; ";
    } else if (ms != mi) {
        // One memcmp clears the usual equal images; only a mismatch
        // walks the bytes, to name the first differing address.
        const auto [s, i] = std::mismatch(ms.begin(), ms.end(), mi.begin());
        diff << "memory[0x" << std::hex << (s - ms.begin()) << "] 0x"
             << static_cast<int>(*s) << " != 0x" << static_cast<int>(*i)
             << std::dec << "; ";
    }
    const std::string d = diff.str();
    if (!d.empty()) {
        rep.kind = Divergence::kFinalStateMismatch;
        rep.detail = d + eng.context();
    }
}

} // namespace crisp::verify
