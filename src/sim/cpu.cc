/**
 * @file
 * CRISP CPU cycle model implementation.
 */

#include "cpu.hh"

#include <iomanip>
#include <sstream>

namespace crisp
{

CrispCpu::CrispCpu(const Program& prog, const SimConfig& cfg,
                   PredecodeCache* shared_predecode)
    : prog_(prog), cfg_(cfg), mem_(prog_), dic_(cfg.dicEntries),
      ownedPredecode_(shared_predecode != nullptr
                          ? nullptr
                          : std::make_unique<PredecodeCache>(prog_)),
      predecode_(shared_predecode != nullptr ? *shared_predecode
                                             : *ownedPredecode_),
      pdu_(prog_, cfg_, dic_, stats_, predecode_),
      hwPredictor_(cfg.predictor, cfg.predictorEntries),
      stackCache_(cfg.stackCacheWords)
{
    sp_ = (prog.memBytes - kWordBytes) & ~(kWordBytes - 1);
    nextIssuePc_ = prog.entry;
}

void
CrispCpu::setCancelFlag(const std::atomic<bool>* flag)
{
    cancel_ = flag;
    cancelCountdown_ = kCancelCheckInterval;
}

void
CrispCpu::setFaultHooks(FaultHooks* hooks)
{
    hooks_ = hooks;
    pdu_.setFaultHooks(hooks);
}

Word
CrispCpu::readOperand(const Operand& o) const
{
    switch (o.mode) {
      case AddrMode::kImm:
        return o.value;
      case AddrMode::kAccum:
        return accum_;
      case AddrMode::kNone:
        return 0;
      default:
        return static_cast<Word>(mem_.read32(operandAddress(o)));
    }
}

Addr
CrispCpu::operandAddress(const Operand& o) const
{
    switch (o.mode) {
      case AddrMode::kStack: {
        const Addr a = sp_ + static_cast<Addr>(o.value) * kWordBytes;
        stackCache_.access(a, sp_);
        return a;
      }
      case AddrMode::kAbs:
        return static_cast<Addr>(o.value);
      case AddrMode::kInd: {
        const Addr slot =
            sp_ + static_cast<Addr>(o.value) * kWordBytes;
        stackCache_.access(slot, sp_);
        return mem_.read32(slot);
      }
      default:
        throw CrispError("operand has no address");
    }
}

void
CrispCpu::writeOperand(const Operand& o, Word v)
{
    if (o.mode == AddrMode::kAccum) {
        accum_ = v;
        return;
    }
    mem_.write32(operandAddress(o), static_cast<std::uint32_t>(v));
}

void
CrispCpu::executeBody(const DecodedInst& di)
{
    if (!di.loneBranch) {
        const Instruction& b = di.body;
        switch (b.op) {
          case Opcode::kNop:
          case Opcode::kHalt:
          case Opcode::kReturn: // SP handled with the control transfer
            break;
          case Opcode::kEnter:
            sp_ -= static_cast<Addr>(b.dst.value) * kWordBytes;
            break;
          case Opcode::kLeave:
            sp_ += static_cast<Addr>(b.dst.value) * kWordBytes;
            break;
          case Opcode::kMov:
            writeOperand(b.dst, readOperand(b.src));
            break;
          default:
            if (isCompare(b.op)) {
                flag_ = evalCompare(b.op, readOperand(b.dst),
                                    readOperand(b.src));
            } else if (isAlu3(b.op)) {
                accum_ = evalAlu(b.op, readOperand(b.dst),
                                 readOperand(b.src));
            } else if (isAlu2(b.op)) {
                writeOperand(b.dst,
                             evalAlu(b.op, readOperand(b.dst),
                                     readOperand(b.src)));
            } else {
                throw CrispError("cpu: unhandled body opcode");
            }
            break;
        }
    }
    if (di.ctl == Ctl::kCall) {
        sp_ -= kWordBytes;
        mem_.write32(sp_, di.callRetPc);
    }
}

void
CrispCpu::squashYounger(Stage* upto_exclusive)
{
    // Squash everything younger than the stage holding the mispredicted
    // branch. Stage age order (oldest first): RR, OR, IR.
    Stage* const order[] = {rrP_, orP_, irP_};
    bool younger = false;
    for (Stage* s : order) {
        if (s == upto_exclusive) {
            younger = true;
            continue;
        }
        if (younger && s->valid) {
            s->valid = false;
            ++stats_.squashed;
        }
    }
    // Any issue block raised by a (now squashed) younger instruction is
    // void.
    block_ = Block::kNone;
}

void
CrispCpu::redirectAfterMispredict(const Stage& s)
{
    note("mispredict-redirect");
    nextIssuePc_ = s.actualTaken ? s.di.takenPc : s.di.seqPc;
    // The Alternate-PC is routed into IR.Next-PC during the next clock;
    // the instruction being clocked in is killed. Issue resumes the
    // cycle after.
    stallUntil_ = now_ + 2;
    block_ = Block::kNone;
}

void
CrispCpu::issueStage()
{
    if (penaltyStall_ > 0) {
        --penaltyStall_;
        ++stats_.issueStallCycles;
        ++stats_.stackPenaltyCycles;
        note("stack-penalty");
        return;
    }
    if (block_ != Block::kNone || now_ < stallUntil_) {
        ++stats_.issueStallCycles;
        if (block_ == Block::kIndirect)
            ++stats_.indirectStallCycles;
        else if (block_ == Block::kNone)
            ++stats_.redirectStallCycles;
        return;
    }

    const DecodedInst* e = dic_.lookup(nextIssuePc_);
    if (e == nullptr) {
        ++stats_.issueStallCycles;
        ++stats_.dicMissStallCycles;
        if (lastMissPc_ != nextIssuePc_) {
            ++stats_.dicMisses;
            lastMissPc_ = nextIssuePc_;
        }
        pdu_.demand(nextIssuePc_);
        note("dic-miss");
        return;
    }
    ++stats_.dicHits;
    lastMissPc_ = ~Addr{0};

    // The IR slot is recycled from the stage that just retired; reset
    // it field by field rather than assigning a fresh Stage (the di
    // copy below overwrites the only non-flag member).
    Stage& ir = irS();
    ir.valid = true;
    ir.di = *e;
    ir.specCond = false;
    ir.predictedTaken = false;
    ir.resolvedAtIssue = false;
    ir.actualTaken = false;
    ir.mispredicted = false;
    ir.delaySlots = 0;
    if (hooks_ != nullptr)
        hooks_->onIssue(ir.di);

    // Control decisions read the IR-stage copy, not the cache: an
    // issue-time fault hook corrupts exactly what the EU acts on.
    const DecodedInst& d = ir.di;
    switch (d.ctl) {
      case Ctl::kSeq:
        nextIssuePc_ = d.seqPc;
        break;
      case Ctl::kJmp:
      case Ctl::kCall:
        nextIssuePc_ = d.takenPc;
        break;
      case Ctl::kHalt:
        block_ = Block::kHalt;
        break;
      case Ctl::kRet:
      case Ctl::kIndirect:
        block_ = Block::kIndirect;
        break;
      case Ctl::kCondT:
      case Ctl::kCondF: {
        const bool cc_busy = (orS().valid && orS().di.writesCc) ||
                             (rrS().valid && rrS().di.writesCc) ||
                             d.writesCc;
        if (!cc_busy) {
            // No compare in the pipeline: the flag is architecturally
            // final, so the branch "has effectively been turned into an
            // unconditional branch" — zero cycles lost regardless of
            // the prediction bit.
            const bool taken = d.condTaken(flag_);
            ir.resolvedAtIssue = true;
            ir.actualTaken = taken;
            ir.predictedTaken = taken;
            nextIssuePc_ = taken ? d.takenPc : d.seqPc;
            note("resolved-at-issue");
        } else {
            const bool pred =
                cfg_.respectPredictionBit &&
                hwPredictor_.predict(d.branchPc, d.predictTaken);
            ir.specCond = true;
            ir.predictedTaken = pred;
            nextIssuePc_ = pred ? d.takenPc : d.seqPc;
        }
        break;
      }
    }
}

void
CrispCpu::emitRetireEvents(const Stage& s, ExecObserver* observer)
{
    const DecodedInst& di = s.di;

    if (!di.loneBranch) {
        ++stats_.opcodeCounts[static_cast<std::size_t>(di.body.op)];
        if (observer)
            observer->onInstruction(di.pc, di.body.op);
    }
    if (di.folded || di.loneBranch) {
        ++stats_.opcodeCounts[static_cast<std::size_t>(di.branchOp)];
        ++stats_.branches;
        stats_.branchDelayCycles += s.delaySlots;
        if (di.folded)
            ++stats_.foldedBranches;
        if (di.hasCondBranch())
            ++stats_.condBranches;
        if (observer) {
            observer->onInstruction(di.branchPc, di.branchOp);
            BranchEvent ev;
            ev.pc = di.branchPc;
            ev.op = di.branchOp;
            ev.conditional = di.hasCondBranch();
            ev.taken = di.hasCondBranch() ? s.actualTaken : true;
            ev.predictTaken = di.predictTaken;
            ev.target = di.takenPc;
            ev.fallThrough = di.seqPc;
            ev.shortForm = di.branchShortForm;
            ev.folded = di.folded;
            ev.resolvedAtIssue = s.resolvedAtIssue;
            ev.delayCycles = s.delaySlots;
            observer->onBranch(ev);
        }
    }
}

void
CrispCpu::recordFault(Addr pc, const std::string& reason)
{
    stats_.faulted = true;
    stats_.faultPc = pc;
    stats_.faultReason = reason;
    halted_ = true;
    note("fault");
}

void
CrispCpu::retireStage(ExecObserver* observer)
{
    if (!rrS().valid)
        return;
    try {
        retireImpl(observer);
    } catch (const DicCorruptionError& e) {
        // The decode checker caught corrupted DIC metadata before the
        // entry could touch architectural state.
        stats_.dicCorruption = true;
        recordFault(rrS().di.pc, e.what());
    } catch (const CrispError& e) {
        // Precise machine fault: architectural effects happen only at
        // retirement, so the faulting instruction is exactly
        // identified and nothing younger has touched state.
        recordFault(rrS().di.pc, e.what());
    }
    // The stack-cache counters only move while an instruction retires,
    // so the published stats need refreshing only here, not per cycle.
    stats_.stackCacheHits = stackCache_.hits();
    stats_.stackCacheMisses = stackCache_.misses();
}

const DecodedInst&
CrispCpu::goldenDecodeAt(Addr pc, FoldPolicy policy) const
{
    if (pc % kParcelBytes != 0 || !prog_.inText(pc)) {
        throw DicCorruptionError(
            "DIC corruption: retiring entry claims PC " + hexAddr(pc) +
            " outside the text segment");
    }
    // The same memoized tables the PDU decodes from: the golden
    // re-decode is a table lookup after the first retire at a PC.
    const PredecodeCache::Entry& e = predecode_.at(pc, policy);
    if (e.error != nullptr)
        throw CrispError(e.error);
    if (!e.valid) {
        throw DicCorruptionError(
            "DIC corruption: no valid decode exists at PC " +
            hexAddr(pc));
    }
    return e.di;
}

namespace
{

/**
 * Architectural equivalence of a pipeline entry against a golden
 * decode. Hint state — the static prediction bit, the one-parcel
 * branch-format flag — is excluded: faults there must stay benign.
 */
bool
sameDecode(const DecodedInst& a, const DecodedInst& g)
{
    if (a.loneBranch != g.loneBranch || a.folded != g.folded ||
        a.ctl != g.ctl || a.seqPc != g.seqPc ||
        a.writesCc != g.writesCc || a.totalParcels != g.totalParcels)
        return false;
    if (!a.loneBranch && !(a.body == g.body))
        return false;
    switch (a.ctl) {
      case Ctl::kJmp:
      case Ctl::kCondT:
      case Ctl::kCondF:
        if (a.takenPc != g.takenPc)
            return false;
        break;
      case Ctl::kCall:
        if (a.takenPc != g.takenPc || a.callRetPc != g.callRetPc)
            return false;
        break;
      case Ctl::kIndirect:
        if (a.bmode != g.bmode || a.spec != g.spec)
            return false;
        break;
      default:
        break;
    }
    if ((a.folded || a.loneBranch) &&
        (a.branchPc != g.branchPc || a.branchOp != g.branchOp))
        return false;
    return true;
}

} // namespace

void
CrispCpu::checkDecodedEntry(const DecodedInst& di) const
{
    const DecodedInst& golden = goldenDecodeAt(di.pc, cfg_.foldPolicy);
    if (sameDecode(di, golden))
        return;
    // A fold decision is a hint: an entry that decodes the same
    // instruction unfolded (the no-fold golden) is architecturally
    // valid too, it just costs an extra EU slot for the branch.
    if (golden.folded &&
        sameDecode(di, goldenDecodeAt(di.pc, FoldPolicy::kNone)))
        return;
    throw DicCorruptionError(
        "DIC corruption detected at retire: cached entry [" +
        di.toString() + "] is not a valid decode of the text at " +
        hexAddr(di.pc) + " (golden: [" + golden.toString() + "])");
}

void
CrispCpu::retireImpl(ExecObserver* observer)
{
    Stage& rr = rrS();
    const DecodedInst& di = rr.di;
    // Verify the entry against a fresh decode of the program text
    // BEFORE any architectural effect: corruption of non-hint DIC
    // metadata becomes a precise fault, never a wrong answer.
    if (cfg_.checkDecode)
        checkDecodedEntry(di);
    const std::uint64_t misses_before = stackCache_.misses();
    executeBody(di);
    if (cfg_.stackCacheMissPenalty > 0) {
        penaltyStall_ += (stackCache_.misses() - misses_before) *
                         static_cast<std::uint64_t>(
                             cfg_.stackCacheMissPenalty);
    }

    ++stats_.issued;
    stats_.apparent += static_cast<std::uint64_t>(di.archCount());

    // Resolve control.
    switch (di.ctl) {
      case Ctl::kHalt:
        halted_ = true;
        stats_.halted = true;
        break;
      case Ctl::kRet: {
        sp_ += static_cast<Addr>(di.body.dst.value) * kWordBytes;
        const Addr target = mem_.read32(sp_);
        sp_ += kWordBytes;
        nextIssuePc_ = target;
        block_ = Block::kNone;
        stallUntil_ = now_ + 1;
        if (observer)
            observer->onInstruction(di.pc, Opcode::kReturn);
        // Architectural count for the return body itself.
        ++stats_.opcodeCounts[
            static_cast<std::size_t>(Opcode::kReturn)];
        note("indirect-target");
        return;
      }
      case Ctl::kIndirect: {
        Addr target = 0;
        if (di.bmode == BranchMode::kIndAbs) {
            target = mem_.read32(di.spec);
        } else {
            target = mem_.read32(
                sp_ + static_cast<Addr>(
                          static_cast<std::int32_t>(di.spec)) *
                          kWordBytes);
        }
        nextIssuePc_ = target;
        rr.di.takenPc = target; // for the retire-order branch event
        block_ = Block::kNone;
        stallUntil_ = now_ + 1;
        rr.delaySlots = 2; // target read at retirement: two bubbles
        break;
      }
      case Ctl::kCondT:
      case Ctl::kCondF:
        if (rr.specCond) {
            // A lone conditional branch (or a folded compare+branch
            // pair) resolves in its own RR stage. The flag is final
            // here: its compare retired no later than this cycle.
            rr.specCond = false;
            rr.actualTaken = di.condTaken(flag_);
            if (rr.actualTaken != rr.predictedTaken) {
                rr.mispredicted = true;
                rr.delaySlots = 3;
                squashYounger(&rr);
                redirectAfterMispredict(rr);
            }
        }
        break;
      default:
        break;
    }

    // Statistics for a surviving conditional branch, and history
    // training for the (optional) dynamic hardware predictor.
    if (di.hasCondBranch()) {
        if (rr.resolvedAtIssue)
            ++stats_.resolvedAtIssue;
        else
            ++stats_.speculated;
        if (rr.mispredicted)
            ++stats_.mispredicts;
        hwPredictor_.update(di.branchPc, rr.actualTaken);
    }

    emitRetireEvents(rr, observer);

    // Case (b): a retiring compare verifies speculative FOLDED branches
    // still in the pipeline, oldest first, recovering from that stage's
    // Alternate-PC register.
    if (di.writesCc && !rr.mispredicted) {
        for (Stage* s : {orP_, irP_}) {
            if (!s->valid)
                continue;
            if (s == irP_ && orS().valid && orS().di.writesCc)
                break; // the IR branch depends on the newer compare
            if (!s->specCond || !s->di.hasCondBranch() ||
                s->di.loneBranch || s->di.writesCc) {
                continue;
            }
            s->specCond = false;
            s->actualTaken = s->di.condTaken(flag_);
            if (s->actualTaken != s->predictedTaken) {
                s->mispredicted = true;
                // Recovery uses the Alternate-PC of the stage the
                // carrier occupies: one slot of separation leaves the
                // branch in OR (2 lost), two slots leave it in IR (1).
                s->delaySlots = s == orP_ ? 2 : 1;
                squashYounger(s);
                redirectAfterMispredict(*s);
                break;
            }
        }
    }
}

bool
CrispCpu::tick(ExecObserver* observer)
{
    if (halted_ || stats_.cancelled)
        return false;

    if (cancel_ != nullptr && --cancelCountdown_ <= 0) {
        cancelCountdown_ = kCancelCheckInterval;
        if (cancel_->load(std::memory_order_relaxed)) {
            stats_.cancelled = true;
            return false;
        }
    }

    // Advance the pipeline: RR <- OR <- IR, recycling the just-retired
    // RR slot as the new (empty) IR. Pointer rotation, no Stage copies.
    Stage* const retired = rrP_;
    rrP_ = orP_;
    orP_ = irP_;
    irP_ = retired;
    irP_->valid = false;

    try {
        pdu_.tick(now_);
        issueStage();
    } catch (const CrispError& e) {
        // A corrupted Next-PC can steer fetch/decode somewhere no
        // instruction stream exists (off the text segment, mid-parcel
        // garbage). Surface it as a precise machine fault rather than
        // letting the exception escape the cycle loop.
        stats_.dicCorruption = true;
        recordFault(nextIssuePc_,
                    std::string("fetch/decode: ") + e.what());
    }
    retireStage(observer);
    if (traceSink_)
        emitTraceLine();

    ++now_;
    stats_.cycles = now_;
    return !halted_;
}

void
CrispCpu::maybeSkipStalls()
{
    // Fast-forward a provable run of DIC-miss stall cycles. The state
    // must be exactly the steady miss-wait: EU pipeline drained, issue
    // unblocked but missing at nextIssuePc_ (with the miss already
    // counted, so lastMissPc_ matches), and every PDU stage idle until
    // its in-flight fetch lands. Each such cycle does precisely
    //   ++issueStallCycles; ++dicMissStallCycles; (demand is a no-op)
    // so a batch of n cycles is n of each counter plus the clock, and
    // the simulation is cycle-for-cycle identical to ticking through.
    // Tracing disables the skip (each stall cycle emits a line).
    if (halted_ || traceSink_ != nullptr)
        return;
    if (irS().valid || orS().valid || rrS().valid)
        return;
    if (penaltyStall_ != 0 || block_ != Block::kNone ||
        now_ < stallUntil_) {
        return;
    }
    if (lastMissPc_ != nextIssuePc_ ||
        dic_.lookup(nextIssuePc_) != nullptr) {
        return;
    }
    std::uint64_t until = pdu_.pureWaitUntil(nextIssuePc_);
    if (until > cfg_.maxCycles)
        until = cfg_.maxCycles; // run() stops there; don't overshoot
    if (until <= now_)
        return;
    const std::uint64_t n = until - now_;
    stats_.issueStallCycles += n;
    stats_.dicMissStallCycles += n;
    now_ = until;
    stats_.cycles = now_;
}

const SimStats&
CrispCpu::run(ExecObserver* observer)
{
    while (!halted_ && now_ < cfg_.maxCycles) {
        if (!tick(observer))
            break;
        maybeSkipStalls();
    }
    if (!halted_ && !stats_.cancelled)
        stats_.timedOut = true;
    return stats_;
}

void
CrispCpu::noteSlow(const char* what)
{
    if (!traceNote_.empty())
        traceNote_ += ' ';
    traceNote_ += what;
}

void
CrispCpu::emitTraceLine()
{
    auto stage_text = [](const Stage& s) -> std::string {
        if (!s.valid)
            return "--";
        std::ostringstream os;
        os << "0x" << std::hex << s.di.pc << std::dec << ":";
        if (s.di.loneBranch)
            os << opcodeName(s.di.branchOp);
        else
            os << opcodeName(s.di.body.op);
        if (s.di.folded)
            os << "+" << opcodeName(s.di.branchOp);
        if (s.specCond)
            os << "?";
        return os.str();
    };
    std::ostringstream os;
    os << std::setw(7) << now_ << " | IR " << std::setw(22) << std::left
       << stage_text(irS()) << "| OR " << std::setw(22)
       << stage_text(orS()) << "| RR " << std::setw(22)
       << stage_text(rrS()) << "| " << traceNote_;
    traceSink_(os.str());
    traceNote_.clear();
}

Word
CrispCpu::wordAt(const std::string& symbol) const
{
    const auto a = prog_.lookup(symbol);
    if (!a)
        throw CrispError("unknown symbol: " + symbol);
    return static_cast<Word>(mem_.read32(*a));
}

} // namespace crisp
