/**
 * @file
 * Figure 2 is the branch-folding datapath schematic (instruction queue
 * QA..QE, the tpcmx offset multiplexor, the branch adjust, and the
 * three Next-PC sources). This bench drives the decode-and-fold logic
 * through every path of that schematic and prints what the hardware
 * would compute:
 *
 *   - instruction length decode from the first parcel (ilen<0:2>);
 *   - Next-PC source 1: PDR.PC + ilen (sequential);
 *   - Next-PC source 2: 32-bit address from the QB/QC parcels;
 *   - Next-PC source 3: 10-bit offset from QB (1-parcel carrier) or QD
 *     (3-parcel carrier), via the branch adjust;
 *   - prediction bit steering target vs fall-through into Next-PC /
 *     Alternate Next-PC.
 */

#include <cstdio>
#include <vector>

#include "isa/encoding.hh"
#include "sim/decoded.hh"

using namespace crisp;

namespace
{

void
show(const char* what, Addr pc, const std::vector<Instruction>& insts)
{
    std::vector<Parcel> window;
    for (const Instruction& i : insts)
        encodeAppend(i, window);

    FoldDecoder dec(FoldPolicy::kCrisp);
    const auto di = dec.decodeAt(pc, window, /*at_end=*/true).di;
    if (!di) {
        std::printf("%-34s -> (window too small)\n", what);
        return;
    }
    std::printf("%-34s -> %s\n", what, di->toString().c_str());
}

} // namespace

int
main()
{
    std::printf("Figure 2 datapath walk-through (decode-and-fold "
                "logic)\n\n");

    std::printf("Instruction length decode from the first parcel "
                "(ilen):\n");
    for (const Instruction& i : {
             Instruction::alu(Opcode::kAdd, Operand::stack(1),
                              Operand::stack(2)),
             Instruction::alu(Opcode::kAdd, Operand::stack(1),
                              Operand::imm(1000)),
             Instruction::alu(Opcode::kAdd, Operand::abs(0x123456),
                              Operand::imm(1 << 20)),
             Instruction::branchRel(Opcode::kJmp, 100),
             Instruction::branchFar(Opcode::kJmp, BranchMode::kAbs,
                                    0x4000),
         }) {
        Parcel buf[kMaxParcels];
        encode(i, buf);
        std::printf("  %-28s ilen = %d parcels\n",
                    i.toString(0x1000).c_str(),
                    instructionLength(buf[0]));
    }

    const Addr pc = 0x2000;
    std::printf("\nNext-PC sources and folding:\n");

    // Source 1: sequential.
    show("plain add (sequential Next-PC)", pc,
         {Instruction::alu(Opcode::kAdd, Operand::stack(0),
                           Operand::imm(1))});

    // Source 3 via QB: one-parcel carrier + one-parcel branch, branch
    // adjust = 2 bytes.
    show("1-parcel add + 1-parcel jmp", pc,
         {Instruction::alu(Opcode::kAdd, Operand::stack(0),
                           Operand::imm(1)),
          Instruction::branchRel(Opcode::kJmp, 0x40)});

    // Source 3 via QD: three-parcel carrier, branch adjust = 6 bytes.
    show("3-parcel cmp + 1-parcel iftjmp", pc,
         {Instruction::cmp(Opcode::kCmpLt, Operand::stack(0),
                           Operand::imm(1024)),
          Instruction::branchRel(Opcode::kIfTJmp, -0x20, true)});

    // Prediction bit steers the predicted path into Next-PC.
    show("folded iftjmp predicted TAKEN", pc,
         {Instruction::alu(Opcode::kMov, Operand::stack(0),
                           Operand::stack(1)),
          Instruction::branchRel(Opcode::kIfTJmp, 0x10, true)});
    show("folded iftjmp predicted NOT taken", pc,
         {Instruction::alu(Opcode::kMov, Operand::stack(0),
                           Operand::stack(1)),
          Instruction::branchRel(Opcode::kIfTJmp, 0x10, false)});

    // Source 2: 32-bit address from QB/QC (three-parcel branch: not
    // folded, gets its own entry).
    show("3-parcel absolute jmp (lone)", pc,
         {Instruction::branchFar(Opcode::kJmp, BranchMode::kAbs,
                                 0x7654)});

    // Non-folding cases.
    std::printf("\nCases CRISP chooses not to fold:\n");
    show("5-parcel carrier + branch", pc,
         {Instruction::alu(Opcode::kAdd, Operand::abs(0x123456),
                           Operand::imm(1 << 20)),
          Instruction::branchRel(Opcode::kJmp, 0x40)});
    show("branch after branch (lone)", pc,
         {Instruction::branchRel(Opcode::kJmp, 0x40),
          Instruction::branchRel(Opcode::kJmp, 0x60)});
    show("carrier + 3-parcel branch", pc,
         {Instruction::alu(Opcode::kAdd, Operand::stack(0),
                           Operand::imm(1)),
          Instruction::branchFar(Opcode::kJmp, BranchMode::kAbs,
                                 0x4000)});

    std::printf("\nFold policy comparison on the same window (add + "
                "jmp with a 5-parcel add):\n");
    for (FoldPolicy p :
         {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
        std::vector<Parcel> window;
        encodeAppend(Instruction::alu(Opcode::kAdd, Operand::abs(0x123456),
                                      Operand::imm(1 << 20)),
                     window);
        encodeAppend(Instruction::branchRel(Opcode::kJmp, 0x40), window);
        FoldDecoder dec(p);
        const auto di = dec.decodeAt(pc, window, true).di;
        const char* pname = p == FoldPolicy::kNone    ? "kNone "
                            : p == FoldPolicy::kCrisp ? "kCrisp"
                                                      : "kAll  ";
        std::printf("  policy %s -> folded=%s\n", pname,
                    di && di->folded ? "yes" : "no");
    }
    return 0;
}
