/**
 * @file
 * Fast-engine differential runner implementation.
 */

#include "enginediff.hh"

#include <sstream>
#include <vector>

#include "isa/program.hh"
#include "reference.hh"
#include "sim/fastengine.hh"

namespace crisp::verify
{

LockstepReport
runFastLockstep(const Program& prog, const LockstepOptions& opt)
{
    LockstepReport rep;

    // Faulting programs stay in scope here: the fast engine must
    // reproduce the fault exactly (shrink candidates routinely mutate
    // into faulting programs).
    Reference ref(prog);
    if (!runReference(ref, opt.maxSteps, rep))
        return rep;
    const InterpResult& ires = ref.interp.result();

    SimConfig cfg = opt.cfg;
    // For the functional engine maxCycles bounds apparent instructions;
    // the margin only has to absorb superblock-boundary overshoot.
    cfg.maxCycles = opt.cycleBudget != 0 ? opt.cycleBudget
                                         : ires.instructions + 50'000;

    FastEngine eng(prog, cfg);
    if (opt.cancel != nullptr)
        eng.setCancelFlag(opt.cancel);
    const std::vector<Ev>& events = ref.recorder.events;
    CheckingObserver obs(events);
    eng.run(&obs);
    rep.sim = eng.stats();

    const EngineState state{"fast",   eng.accum(),  eng.flag(),
                            eng.sp(), eng.nextPc(), eng.memory()};
    if (rep.sim.cancelled) {
        rep.kind = Divergence::kTimeout;
        rep.detail =
            "wall-clock watchdog cancelled the fast-engine run" +
            state.context();
        return rep;
    }
    if (obs.mismatch) {
        rep.kind = Divergence::kEventMismatch;
        rep.eventIndex = obs.index;
        rep.detail = obs.detail + state.context();
        return rep;
    }
    if (rep.sim.faulted || ref.faulted) {
        if (!rep.sim.faulted) {
            rep.kind = Divergence::kMachineFault;
            rep.detail = "interpreter faulted (" + ref.faultReason +
                         ") but the fast engine did not" +
                         state.context();
            return rep;
        }
        if (!ref.faulted) {
            rep.kind = Divergence::kMachineFault;
            rep.detail = "fast engine faulted (" +
                         rep.sim.faultReason +
                         ") but the interpreter did not" +
                         state.context();
            return rep;
        }
        if (rep.sim.faultReason != ref.faultReason) {
            rep.kind = Divergence::kMachineFault;
            rep.detail = "fault reason mismatch: interpreter \"" +
                         ref.faultReason + "\", fast engine \"" +
                         rep.sim.faultReason + "\"" + state.context();
            return rep;
        }
        // Both faulted identically; fall through to the count and
        // state comparison at the fault point.
    } else if (!eng.halted()) {
        rep.kind = Divergence::kCycleLimit;
        rep.detail = "fast engine did not halt within " +
                     std::to_string(cfg.maxCycles) + " instructions" +
                     state.context();
        return rep;
    }
    if (obs.index != events.size()) {
        rep.kind = Divergence::kEventCountMismatch;
        rep.eventIndex = obs.index;
        rep.detail = "fast engine stopped after " +
                     std::to_string(obs.index) + " of " +
                     std::to_string(events.size()) +
                     " reference events" + state.context();
        return rep;
    }

    // Streams agree; verify final architectural state, plus the
    // functional-only extras the cycle lockstep cannot pin: the exact
    // opcode histogram and dynamic branch count.
    std::ostringstream extra;
    if (rep.sim.branches != ires.branches) {
        extra << "branches " << rep.sim.branches
              << " != " << ires.branches << "; ";
    }
    for (std::size_t i = 0; i < rep.sim.opcodeCounts.size(); ++i) {
        if (rep.sim.opcodeCounts[i] != ires.opcodeCounts[i]) {
            extra << "count[" << opcodeName(static_cast<Opcode>(i))
                  << "] " << rep.sim.opcodeCounts[i]
                  << " != " << ires.opcodeCounts[i] << "; ";
            break;
        }
    }
    checkFinalState(ref, state, extra.str(), rep);
    return rep;
}

} // namespace crisp::verify
