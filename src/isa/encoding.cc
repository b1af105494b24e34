/**
 * @file
 * Parcel-level instruction codec.
 */

#include "encoding.hh"

#include <optional>
#include <sstream>

namespace crisp
{

namespace
{

constexpr int kModeNone = 0;
constexpr int kModeStack = 1;
constexpr int kModeAbs = 2;
constexpr int kModeImm = 3;
constexpr int kModeInd = 4;
constexpr int kModeAccum = 5;

int
modeBits(AddrMode m)
{
    switch (m) {
      case AddrMode::kNone:  return kModeNone;
      case AddrMode::kStack: return kModeStack;
      case AddrMode::kAbs:   return kModeAbs;
      case AddrMode::kImm:   return kModeImm;
      case AddrMode::kInd:   return kModeInd;
      case AddrMode::kAccum: return kModeAccum;
    }
    throw CrispError("modeBits: bad addressing mode");
}

/** Nothing for a mode field no addressing mode uses. */
std::optional<AddrMode>
bitsMode(int bits)
{
    switch (bits) {
      case kModeNone:  return AddrMode::kNone;
      case kModeStack: return AddrMode::kStack;
      case kModeAbs:   return AddrMode::kAbs;
      case kModeImm:   return AddrMode::kImm;
      case kModeInd:   return AddrMode::kInd;
      case kModeAccum: return AddrMode::kAccum;
      default:
        return std::nullopt;
    }
}

/** Specifier value as stored in a 16-bit parcel. */
Parcel
spec16(const Operand& o)
{
    return static_cast<Parcel>(static_cast<std::uint32_t>(o.value));
}

/** Reconstruct an operand from a 16-bit specifier. */
std::int32_t
unspec16(AddrMode m, Parcel p)
{
    if (m == AddrMode::kAbs)
        return static_cast<std::int32_t>(p);
    return signExtend(p, 16);
}

int
branchModeBits(BranchMode m)
{
    switch (m) {
      case BranchMode::kAbs:    return 0;
      case BranchMode::kIndAbs: return 1;
      case BranchMode::kIndSp:  return 2;
      case BranchMode::kPcRel:
        throw CrispError("PC-relative branch has no long encoding");
    }
    throw CrispError("branchModeBits: bad branch mode");
}

/** Nothing for the unused branch-mode field value. */
std::optional<BranchMode>
bitsBranchMode(int bits)
{
    switch (bits) {
      case 0: return BranchMode::kAbs;
      case 1: return BranchMode::kIndAbs;
      case 2: return BranchMode::kIndSp;
      default:
        return std::nullopt;
    }
}

/** a-field value for a one-parcel operand. */
int
shortA(const Operand& o)
{
    if (o.mode == AddrMode::kAccum)
        return 31;
    if (o.mode == AddrMode::kStack)
        return o.value;
    return 0; // kNone
}

/** b-field and immediate flag for a one-parcel operand. */
std::pair<int, int>
shortB(const Operand& o)
{
    if (o.mode == AddrMode::kImm)
        return {o.value, 1};
    if (o.mode == AddrMode::kAccum)
        return {7, 0};
    if (o.mode == AddrMode::kStack)
        return {o.value, 0};
    return {0, 0}; // kNone
}

Operand
unshortA(int a)
{
    return a == 31 ? Operand::accum() : Operand::stack(a);
}

Operand
unshortB(int b, int m)
{
    if (m)
        return Operand::imm(b);
    return b == 7 ? Operand::accum() : Operand::stack(b);
}

} // namespace

int
encode(const Instruction& inst, Parcel* out)
{
    const int len = inst.lengthParcels();
    const auto opbits = static_cast<Parcel>(inst.op);

    switch (inst.op) {
      case Opcode::kJmp:
      case Opcode::kIfTJmp:
      case Opcode::kIfFJmp:
        if (inst.bmode == BranchMode::kPcRel) {
            if (!fitsShortBranch(inst.disp)) {
                throw CrispError("branch displacement out of range: " +
                                 std::to_string(inst.disp));
            }
            Parcel major = kMajorJmp;
            if (inst.op == Opcode::kIfTJmp)
                major = kMajorIfT;
            else if (inst.op == Opcode::kIfFJmp)
                major = kMajorIfF;
            const auto words =
                static_cast<std::uint32_t>(inst.disp / 2) & 0x3FFu;
            out[0] = static_cast<Parcel>(
                (major << 12) | (inst.predictTaken ? (1u << 11) : 0u) |
                words);
            return 1;
        }
        [[fallthrough]];
      case Opcode::kCall: {
        // Three-parcel branch.
        out[0] = static_cast<Parcel>(
            (opbits << 10) | (1u << 9) |
            (inst.predictTaken ? (1u << 8) : 0u) |
            (branchModeBits(inst.bmode) << 6));
        out[1] = static_cast<Parcel>(inst.spec & 0xFFFF);
        out[2] = static_cast<Parcel>(inst.spec >> 16);
        return 3;
      }
      case Opcode::kNop:
      case Opcode::kHalt:
        out[0] = static_cast<Parcel>(opbits << 10);
        return 1;
      case Opcode::kEnter:
      case Opcode::kReturn:
      case Opcode::kLeave: {
        const std::int32_t words = inst.dst.value;
        if (words < 0 || words > 511)
            throw CrispError("enter/return frame size out of range");
        out[0] = static_cast<Parcel>((opbits << 10) | words);
        return 1;
      }
      default:
        break;
    }

    if (len == 1) {
        const auto [b, m] = shortB(inst.src);
        out[0] = static_cast<Parcel>(
            (opbits << 10) | (shortA(inst.dst) << 4) | (b << 1) | m);
        return 1;
    }

    const bool wide = len == 5;
    out[0] = static_cast<Parcel>(
        (opbits << 10) | (1u << 9) | (wide ? (1u << 8) : 0u) |
        (modeBits(inst.dst.mode) << 5) | (modeBits(inst.src.mode) << 2));
    if (!wide) {
        out[1] = spec16(inst.dst);
        out[2] = spec16(inst.src);
        return 3;
    }
    const auto d = static_cast<std::uint32_t>(inst.dst.value);
    const auto s = static_cast<std::uint32_t>(inst.src.value);
    out[1] = static_cast<Parcel>(d & 0xFFFF);
    out[2] = static_cast<Parcel>(d >> 16);
    out[3] = static_cast<Parcel>(s & 0xFFFF);
    out[4] = static_cast<Parcel>(s >> 16);
    return 5;
}

int
encodeAppend(const Instruction& inst, std::vector<Parcel>& image)
{
    Parcel buf[kMaxParcels];
    const int n = encode(inst, buf);
    image.insert(image.end(), buf, buf + n);
    return n;
}

DecodeResult
tryDecode(const Parcel* parcels)
{
    const Parcel p0 = parcels[0];
    if (isShortBranch(p0)) {
        const int major = p0 >> 12;
        Opcode op = Opcode::kJmp;
        if (major == kMajorIfT)
            op = Opcode::kIfTJmp;
        else if (major == kMajorIfF)
            op = Opcode::kIfFJmp;
        const bool pred = (p0 >> 11) & 1;
        const std::int32_t disp = signExtend(p0 & 0x3FFu, 10) * 2;
        return {Instruction::branchRel(op, disp, pred)};
    }

    const auto op = static_cast<Opcode>(p0 >> 10);
    if (static_cast<int>(op) >= kOpcodeCount)
        return {{}, "decode: bad opcode"};

    if (isBranch(op)) {
        const bool pred = (p0 >> 8) & 1;
        const auto bmode = bitsBranchMode((p0 >> 6) & 3);
        if (!bmode)
            return {{}, "bitsBranchMode: bad branch mode encoding"};
        const std::uint32_t spec =
            static_cast<std::uint32_t>(parcels[1]) |
            (static_cast<std::uint32_t>(parcels[2]) << 16);
        return {Instruction::branchFar(op, *bmode, spec, pred)};
    }

    if (op == Opcode::kNop)
        return {Instruction::nop()};
    if (op == Opcode::kHalt)
        return {Instruction::halt()};
    if (op == Opcode::kEnter)
        return {Instruction::enter(p0 & 0x1FF)};
    if (op == Opcode::kReturn)
        return {Instruction::ret(p0 & 0x1FF)};
    if (op == Opcode::kLeave)
        return {Instruction::leave(p0 & 0x1FF)};

    const bool long_form = (p0 >> 9) & 1;
    if (!long_form) {
        const int a = (p0 >> 4) & 0x1F;
        const int b = (p0 >> 1) & 0x7;
        const int m = p0 & 1;
        return {Instruction::alu(op, unshortA(a), unshortB(b, m))};
    }

    const bool wide = (p0 >> 8) & 1;
    const auto dm = bitsMode((p0 >> 5) & 7);
    const auto sm = bitsMode((p0 >> 2) & 7);
    if (!dm || !sm)
        return {{}, "bitsMode: bad mode encoding"};
    Operand dst, src;
    dst.mode = *dm;
    src.mode = *sm;
    if (!wide) {
        dst.value = unspec16(*dm, parcels[1]);
        src.value = unspec16(*sm, parcels[2]);
    } else {
        dst.value = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(parcels[1]) |
            (static_cast<std::uint32_t>(parcels[2]) << 16));
        src.value = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(parcels[3]) |
            (static_cast<std::uint32_t>(parcels[4]) << 16));
    }
    if (*dm == AddrMode::kNone)
        dst.value = 0;
    if (*sm == AddrMode::kNone)
        src.value = 0;
    return {Instruction::alu(op, dst, src)};
}

Instruction
decode(const Parcel* parcels)
{
    const DecodeResult r = tryDecode(parcels);
    if (r.error != nullptr)
        throw CrispError(r.error);
    return r.inst;
}

} // namespace crisp
