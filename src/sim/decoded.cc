/**
 * @file
 * Decode-and-fold logic (the PDR-stage datapath of Figure 2).
 */

#include "decoded.hh"

#include <sstream>

namespace crisp
{

namespace
{

/** The transfer of a static jmp, iftjmp, iffjmp or call @p op. */
Ctl
branchCtl(Opcode op)
{
    switch (op) {
      case Opcode::kIfTJmp:
        return Ctl::kCondT;
      case Opcode::kIfFJmp:
        return Ctl::kCondF;
      case Opcode::kCall:
        return Ctl::kCall;
      default:
        return Ctl::kJmp;
    }
}

/** May a carrier of @p parcels length fold under @p policy? */
bool
carrierLengthOk(FoldPolicy policy, int parcels)
{
    switch (policy) {
      case FoldPolicy::kNone:
        return false;
      case FoldPolicy::kCrisp:
        return parcels == 1 || parcels == 3;
      case FoldPolicy::kAll:
        return true;
    }
    return false;
}

} // namespace

int
FoldDecoder::windowNeed(Parcel parcel0) const
{
    return windowNeed(parcel0, instructionLength(parcel0));
}

int
FoldDecoder::windowNeed(Parcel parcel0, int len) const
{
    if (isShortBranch(parcel0))
        return len;

    const auto op = static_cast<Opcode>(parcel0 >> 10);
    if (carrierLengthOk(policy_, len) && isFoldableBody(op))
        return len + 1;
    return len;
}

FoldDecode
FoldDecoder::decodeAt(Addr pc, std::span<const Parcel> window,
                      bool at_end) const
{
    if (window.empty())
        return {};

    const int len = instructionLength(window[0]);
    if (static_cast<int>(window.size()) < len)
        return {};

    const DecodeResult raw = tryDecode(window.data());
    if (raw.error != nullptr)
        return {std::nullopt, raw.error};
    const Instruction& inst = raw.inst;

    DecodedInst di;
    di.pc = pc;
    di.totalParcels = len;
    di.seqPc = pc + static_cast<Addr>(len) * kParcelBytes;

    if (isBranch(inst.op)) {
        // A branch that was not folded into a predecessor: it gets its
        // own DIC entry and occupies an EU slot ("a branch after a
        // call" in the paper).
        di.loneBranch = true;
        di.body = Instruction::nop();
        di.branchPc = pc;
        di.branchOp = inst.op;
        di.branchShortForm = (len == 1);
        di.predictTaken = inst.predictTaken;

        switch (inst.bmode) {
          case BranchMode::kPcRel:
            di.takenPc = pc + static_cast<Addr>(inst.disp);
            break;
          case BranchMode::kAbs:
            di.takenPc = inst.spec;
            break;
          case BranchMode::kIndAbs:
          case BranchMode::kIndSp:
            if (inst.op != Opcode::kJmp) {
                return {std::nullopt,
                        "pipeline: only unconditional jumps may be "
                        "indirect"};
            }
            di.ctl = Ctl::kIndirect;
            di.bmode = inst.bmode;
            di.spec = inst.spec;
            return {di};
        }

        di.ctl = branchCtl(inst.op);
        if (inst.op == Opcode::kCall)
            di.callRetPc = di.seqPc;
        return {di};
    }

    // Non-branch body.
    di.body = inst;
    di.writesCc = inst.writesCc();

    if (inst.op == Opcode::kHalt) {
        di.ctl = Ctl::kHalt;
        return {di};
    }
    if (inst.op == Opcode::kReturn) {
        di.ctl = Ctl::kRet;
        return {di};
    }

    // Branch Folding: peek at the next parcel; if it starts a
    // one-parcel branch, absorb it into this entry. Only the short
    // branch majors are decoded: any other word after the body, even
    // one that does not decode, leaves the body unfolded.
    if (carrierLengthOk(policy_, len) && isFoldableBody(inst.op)) {
        if (static_cast<int>(window.size()) < len + 1) {
            if (!at_end)
                return {};  // wait for the lookahead parcel
            return {di};    // nothing follows; no fold
        }
        if (isShortBranch(window[len])) {
            const Instruction br = tryDecode(window.data() + len).inst;
            di.folded = true;
            di.totalParcels = len + 1;
            di.branchPc = pc + static_cast<Addr>(len) * kParcelBytes;
            di.seqPc = di.branchPc + kParcelBytes;
            di.branchOp = br.op;
            di.branchShortForm = true;
            di.predictTaken = br.predictTaken;
            // The "branch adjust": the 10-bit offset is relative to
            // the branch's own address, not the carrier's.
            di.takenPc = di.branchPc + static_cast<Addr>(br.disp);
            di.ctl = branchCtl(br.op);
        }
    }
    return {di};
}

std::string
DecodedInst::toString() const
{
    std::ostringstream os;
    os << "0x" << std::hex << pc << std::dec << ": ";
    if (loneBranch) {
        os << opcodeName(branchOp) << " (lone)";
    } else {
        os << body.toString(pc);
        if (folded)
            os << " + folded " << opcodeName(branchOp);
    }
    switch (ctl) {
      case Ctl::kSeq:
        os << " -> seq 0x" << std::hex << seqPc;
        break;
      case Ctl::kJmp:
      case Ctl::kCall:
        os << " -> 0x" << std::hex << takenPc;
        break;
      case Ctl::kCondT:
      case Ctl::kCondF:
        os << " -> " << (predictTaken ? "T:" : "N:") << "0x" << std::hex
           << takenPc << " / 0x" << seqPc;
        break;
      case Ctl::kRet:
        os << " -> ret";
        break;
      case Ctl::kIndirect:
        os << " -> indirect";
        break;
      case Ctl::kHalt:
        os << " -> halt";
        break;
    }
    return os.str();
}

} // namespace crisp
