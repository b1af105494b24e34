/**
 * @file
 * Lowering of predecoded entries into the threaded-code TOp table.
 */

#include "translate.hh"

#include <algorithm>

namespace crisp
{

namespace
{

/** Pre-scale an operand specifier (wrapping uint32 arithmetic, exactly
 *  the interpreter's `sp_ + static_cast<Addr>(value) * kWordBytes`). */
TOperand
lowerOperand(const Operand& o)
{
    TOperand t;
    t.mode = o.mode;
    switch (o.mode) {
      case AddrMode::kStack:
      case AddrMode::kInd:
        t.v = static_cast<std::uint32_t>(o.value) * kWordBytes;
        break;
      case AddrMode::kAbs:
      case AddrMode::kImm:
        t.v = static_cast<std::uint32_t>(o.value);
        break;
      default:
        break;
    }
    return t;
}

/** Fill the computational-body fields of @p t from @p inst. */
void
fillBody(TOp& t, const Instruction& inst)
{
    t.bodyOp = inst.op;
    t.dst = lowerOperand(inst.dst);
    t.src = lowerOperand(inst.src);
    if (inst.op == Opcode::kNop) {
        t.body = TBody::kNop;
    } else if (inst.op == Opcode::kMov) {
        t.body = TBody::kMov;
    } else if (inst.op == Opcode::kEnter) {
        t.body = TBody::kEnter;
        t.frameBytes =
            static_cast<std::uint32_t>(inst.dst.value) * kWordBytes;
    } else if (inst.op == Opcode::kLeave) {
        t.body = TBody::kLeave;
        t.frameBytes =
            static_cast<std::uint32_t>(inst.dst.value) * kWordBytes;
    } else if (isCompare(inst.op)) {
        t.body = TBody::kCmp;
    } else if (isAlu3(inst.op)) {
        t.body = TBody::kAlu3;
    } else if (isAlu2(inst.op)) {
        t.body = inst.op == Opcode::kAdd &&
                         t.dst.mode == AddrMode::kAccum &&
                         t.src.mode == AddrMode::kImm
                     ? TBody::kAddAccImm
                     : TBody::kAlu2;
    } else {
        t.body = TBody::kBad;
    }
}

} // namespace

Translation::Translation(const Program& prog, FoldPolicy policy,
                         PredecodeCache* predecode,
                         const IndirectHints* hints)
    : prog_(prog), policy_(policy), textBase_(prog.textBase),
      textEnd_(prog.textEnd())
{
    if (hints != nullptr)
        hints_ = *hints;
    if (predecode) {
        predecode_ = predecode;
    } else {
        ownedPredecode_ = std::make_unique<PredecodeCache>(prog);
        predecode_ = ownedPredecode_.get();
    }
    ops_.assign(prog_.text.size(), TOp{});
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        translateAt(ops_[i],
                    textBase_ + static_cast<Addr>(i) * kParcelBytes);
    }
    predictIndirects();
    linkSuccessors();
}

void
Translation::translateAt(TOp& t, Addr pc)
{
    const PredecodeCache::Entry& e = predecode_->at(pc, policy_);
    if (e.valid) {
        lowerDecoded(t, e.di);
        return;
    }
    // No fold decode: the instruction runs off the end of text, does
    // not decode, or is one the pipeline cannot issue (an indirect
    // conditional branch). The interpreter executes the raw view or
    // raises its fetch error before counting anything; so does the
    // fast engine.
    const DecodeResult raw = prog_.tryFetch(pc);
    if (raw.error == nullptr) {
        lowerRaw(t, pc, raw.inst);
        return;
    }
    t.pc = pc; // t is still a default TOp, a kTrap
    t.trapMsg = static_cast<std::uint32_t>(trapMsgs_.size());
    trapMsgs_.push_back(raw.error);
}

void
Translation::lowerDecoded(TOp& t, const DecodedInst& di)
{
    t.pc = di.pc;
    t.seqPc = di.seqPc;
    switch (di.ctl) {
      case Ctl::kSeq:
        t.kind = TKind::kChain;
        fillBody(t, di.body);
        return;
      case Ctl::kHalt:
        t.kind = TKind::kHalt;
        t.bodyOp = Opcode::kHalt;
        return;
      case Ctl::kRet:
        t.kind = TKind::kRet;
        t.bodyOp = Opcode::kReturn;
        t.frameBytes =
            static_cast<std::uint32_t>(di.body.dst.value) * kWordBytes;
        return;
      case Ctl::kJmp:
      case Ctl::kCondT:
      case Ctl::kCondF:
      case Ctl::kCall:
      case Ctl::kIndirect:
        break;
    }

    // Branch entries (lone or folded).
    t.kind = di.ctl == Ctl::kCall ? TKind::kCall
             : di.hasCondBranch() ? TKind::kCond
                                  : TKind::kJmp;
    t.condWhenTrue = di.ctl == Ctl::kCondT;
    t.branchOp = di.branchOp;
    t.branchPc = di.branchPc;
    t.takenPc = di.takenPc;
    t.callRetPc = di.callRetPc;
    t.shortForm = di.branchShortForm;
    t.predictTaken = di.predictTaken;
    t.folded = di.folded;
    if (di.folded)
        fillBody(t, di.body);
    if (di.ctl == Ctl::kIndirect) {
        t.dynTarget = true;
        t.bmode = di.bmode;
        t.dynSpec = di.bmode == BranchMode::kIndSp
                        ? di.spec * kWordBytes
                        : di.spec;
    }
}

void
Translation::lowerRaw(TOp& t, Addr pc, const Instruction& inst)
{
    t.pc = pc;
    t.seqPc = pc + inst.lengthBytes();
    switch (inst.op) {
      case Opcode::kHalt:
        t.kind = TKind::kHalt;
        t.bodyOp = Opcode::kHalt;
        return;
      case Opcode::kReturn:
        t.kind = TKind::kRet;
        t.bodyOp = Opcode::kReturn;
        t.frameBytes =
            static_cast<std::uint32_t>(inst.dst.value) * kWordBytes;
        return;
      case Opcode::kJmp:
      case Opcode::kIfTJmp:
      case Opcode::kIfFJmp:
      case Opcode::kCall:
        break;
      default:
        t.kind = TKind::kChain;
        fillBody(t, inst);
        return;
    }

    t.kind = inst.op == Opcode::kCall          ? TKind::kCall
             : isConditionalBranch(inst.op)    ? TKind::kCond
                                               : TKind::kJmp;
    t.condWhenTrue = inst.op == Opcode::kIfTJmp;
    t.branchOp = inst.op;
    t.branchPc = pc;
    t.callRetPc = t.seqPc;
    t.shortForm = inst.lengthParcels() == 1;
    t.predictTaken = inst.predictTaken;
    switch (inst.bmode) {
      case BranchMode::kPcRel:
        t.takenPc = pc + static_cast<Addr>(inst.disp);
        break;
      case BranchMode::kAbs:
        t.takenPc = inst.spec;
        break;
      case BranchMode::kIndAbs:
        t.dynTarget = true;
        t.bmode = inst.bmode;
        t.dynSpec = inst.spec;
        break;
      case BranchMode::kIndSp:
        t.dynTarget = true;
        t.bmode = inst.bmode;
        t.dynSpec = inst.spec * kWordBytes;
        break;
    }
}

void
Translation::predictIndirects()
{
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const TOp& t = ops_[i];
        if (!t.dynTarget)
            continue;
        // Likely target: a hinted proven set's first element wins;
        // otherwise a constant-address specifier (kIndAbs) predicts
        // the load-image word it points at. Either way the value only
        // seeds the inline cache, which the engine compares against
        // the word it actually reads.
        Addr likely = 0;
        bool have = false;
        const auto h = hints_.targets.find(t.branchPc);
        if (h != hints_.targets.end() && !h->second.empty()) {
            likely = h->second.front();
            have = true;
        } else if (t.bmode == BranchMode::kIndAbs) {
            if (const auto w = prog_.dataWord(t.dynSpec)) {
                likely = static_cast<Addr>(*w);
                have = true;
            }
        }
        // Predicting a fetch fault helps nothing.
        if (have && indexOf(likely) != kNoIdx)
            icSeeds_.emplace_back(static_cast<std::uint32_t>(i), likely);
    }
}

void
Translation::linkSuccessors()
{
    for (TOp& t : ops_) {
        t.seqIdx = indexOf(t.seqPc);
        if ((t.kind == TKind::kJmp || t.kind == TKind::kCond ||
             t.kind == TKind::kCall) &&
            !t.dynTarget) {
            t.takenIdx = indexOf(t.takenPc);
        }
    }
    // Run lengths, computed backward: a sequential op's successor
    // index is strictly greater than its own (seqPc > pc), so every
    // value on the right is already final. Capping each step caps the
    // whole run, since min(cap, 1 + min(cap, n)) == min(cap, 1 + n).
    for (std::size_t i = ops_.size(); i-- > 0;) {
        TOp& t = ops_[i];
        if (t.kind != TKind::kChain)
            continue;
        t.trace = 1;
        if (t.seqIdx != kNoIdx && ops_[t.seqIdx].kind == TKind::kChain)
            t.trace = std::min(kTraceCap, 1 + ops_[t.seqIdx].trace);
    }
}

} // namespace crisp
