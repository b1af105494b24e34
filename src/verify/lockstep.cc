/**
 * @file
 * Lockstep differential runner implementation.
 */

#include "lockstep.hh"

#include <sstream>

#include "isa/program.hh"
#include "reference.hh"
#include "sim/cpu.hh"

namespace crisp::verify
{

std::string_view
divergenceName(Divergence d)
{
    switch (d) {
      case Divergence::kNone:
        return "none";
      case Divergence::kEventMismatch:
        return "event-mismatch";
      case Divergence::kEventCountMismatch:
        return "event-count-mismatch";
      case Divergence::kFinalStateMismatch:
        return "final-state-mismatch";
      case Divergence::kMachineFault:
        return "machine-fault";
      case Divergence::kDicCorruptionDetected:
        return "dic-corruption-detected";
      case Divergence::kCycleLimit:
        return "cycle-limit";
      case Divergence::kReferenceStepLimit:
        return "reference-step-limit";
      case Divergence::kTimeout:
        return "timeout";
    }
    return "?";
}

std::string
LockstepReport::toString() const
{
    std::ostringstream os;
    os << "lockstep: " << divergenceName(kind);
    if (kind == Divergence::kEventMismatch ||
        kind == Divergence::kEventCountMismatch) {
        os << " at event #" << eventIndex;
    }
    if (!detail.empty())
        os << "\n  " << detail;
    os << "\n  ref instructions: " << refInstructions
       << ", sim apparent: " << sim.apparent
       << ", cycles: " << sim.cycles;
    if (sim.faulted) {
        os << "\n  fault at 0x" << std::hex << sim.faultPc << std::dec
           << ": " << sim.faultReason;
    }
    return os.str();
}

LockstepReport
runLockstep(const Program& prog, const LockstepOptions& opt)
{
    LockstepReport rep;

    Reference ref(prog);
    if (!runReference(ref, opt.maxSteps, rep))
        return rep;
    if (ref.faulted) {
        // This runner checks only programs the interpreter runs to a
        // halt: the fault reaches the caller as the interpreter
        // raised it.
        throw CrispError(ref.faultReason);
    }

    SimConfig cfg = opt.cfg;
    const std::uint64_t budget =
        opt.cycleBudget != 0 ? opt.cycleBudget
                             : defaultCycleBudget(rep.refInstructions);
    cfg.maxCycles = budget;

    CrispCpu cpu(prog, cfg);
    if (opt.hooks != nullptr)
        cpu.setFaultHooks(opt.hooks);
    if (opt.cancel != nullptr)
        cpu.setCancelFlag(opt.cancel);
    CheckingObserver obs(ref);
    while (cpu.tick(&obs)) {
        if (obs.mismatch || cpu.stats().cycles >= budget)
            break;
    }
    rep.sim = cpu.stats();

    const EngineState state{"sim",         cpu.accum(), cpu.flag(),
                            cpu.sp(),      cpu.nextIssuePc(),
                            cpu.memory()};
    if (rep.sim.dicCorruption) {
        rep.kind = Divergence::kDicCorruptionDetected;
        rep.detail = rep.sim.faultReason;
        return rep;
    }
    if (rep.sim.faulted) {
        rep.kind = Divergence::kMachineFault;
        rep.detail = rep.sim.faultReason;
        return rep;
    }
    if (obs.mismatch) {
        rep.kind = Divergence::kEventMismatch;
        rep.eventIndex = obs.index;
        rep.detail = obs.detail + state.context();
        return rep;
    }
    if (rep.sim.cancelled) {
        rep.kind = Divergence::kTimeout;
        rep.detail = "wall-clock watchdog cancelled the pipeline run" +
                     state.context();
        return rep;
    }
    if (!cpu.halted()) {
        rep.kind = Divergence::kCycleLimit;
        rep.detail = "pipeline did not halt within " +
                     std::to_string(budget) + " cycles" +
                     state.context();
        return rep;
    }
    if (obs.index != ref.events) {
        rep.kind = Divergence::kEventCountMismatch;
        rep.eventIndex = obs.index;
        rep.detail = "pipeline halted after " +
                     std::to_string(obs.index) + " of " +
                     std::to_string(ref.events) +
                     " reference events" + state.context();
        return rep;
    }

    // Streams agree; verify final architectural state.
    checkFinalState(ref, state, "", rep);
    return rep;
}

} // namespace crisp::verify
