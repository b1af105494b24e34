/**
 * @file
 * Decode-and-fold tests (the Figure 2 datapath logic) and the Decoded
 * Instruction Cache.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/decoded.hh"
#include "sim/dic.hh"

namespace crisp
{
namespace
{

std::vector<Parcel>
parcels(const std::vector<Instruction>& insts)
{
    std::vector<Parcel> out;
    for (const Instruction& i : insts)
        encodeAppend(i, out);
    return out;
}

TEST(FoldDecoder, FoldsOneParcelCarrierWithBranch)
{
    const auto w = parcels({
        Instruction::alu(Opcode::kAdd, Operand::stack(0), Operand::imm(1)),
        Instruction::branchRel(Opcode::kJmp, 0x40),
    });
    FoldDecoder dec(FoldPolicy::kCrisp);
    const auto di = dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(di);
    EXPECT_TRUE(di->folded);
    EXPECT_FALSE(di->loneBranch);
    EXPECT_EQ(di->ctl, Ctl::kJmp);
    EXPECT_EQ(di->totalParcels, 2);
    EXPECT_EQ(di->branchPc, 0x2002u);
    // Branch adjust: the offset is relative to the branch's address.
    EXPECT_EQ(di->takenPc, 0x2002u + 0x40u);
    EXPECT_EQ(di->seqPc, 0x2004u);
    EXPECT_EQ(di->archCount(), 2);
}

TEST(FoldDecoder, FoldsThreeParcelCarrier)
{
    const auto w = parcels({
        Instruction::cmp(Opcode::kCmpLt, Operand::stack(0),
                         Operand::imm(1024)),
        Instruction::branchRel(Opcode::kIfTJmp, -0x20, true),
    });
    FoldDecoder dec(FoldPolicy::kCrisp);
    const auto di = dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(di);
    EXPECT_TRUE(di->folded);
    EXPECT_TRUE(di->writesCc); // the dedicated modifies-CC bit
    EXPECT_EQ(di->ctl, Ctl::kCondT);
    EXPECT_TRUE(di->predictTaken);
    EXPECT_EQ(di->totalParcels, 4);
    EXPECT_EQ(di->branchPc, 0x2006u);
    EXPECT_EQ(di->takenPc, 0x2006u - 0x20u);
}

TEST(FoldDecoder, CrispPolicySkipsFiveParcelCarriers)
{
    const auto w = parcels({
        Instruction::mov(Operand::abs(0x20000), Operand::imm(1 << 20)),
        Instruction::branchRel(Opcode::kJmp, 0x40),
    });
    FoldDecoder crisp_dec(FoldPolicy::kCrisp);
    const auto a = crisp_dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(a);
    EXPECT_FALSE(a->folded);
    EXPECT_EQ(a->totalParcels, 5);

    FoldDecoder all_dec(FoldPolicy::kAll);
    const auto b = all_dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(b);
    EXPECT_TRUE(b->folded);
    EXPECT_EQ(b->totalParcels, 6);

    FoldDecoder none_dec(FoldPolicy::kNone);
    const auto c = none_dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(c);
    EXPECT_FALSE(c->folded);
}

TEST(FoldDecoder, NoFoldAcrossControlInstructions)
{
    // A branch cannot fold into another branch, a return, or a halt.
    for (const Instruction& first :
         {Instruction::branchRel(Opcode::kJmp, 0x10),
          Instruction::ret(2), Instruction::halt()}) {
        const auto w = parcels({
            first,
            Instruction::branchRel(Opcode::kJmp, 0x40),
        });
        FoldDecoder dec(FoldPolicy::kCrisp);
        const auto di = dec.decodeAt(0x2000, w, true).di;
        ASSERT_TRUE(di);
        EXPECT_FALSE(di->folded) << first.toString();
        EXPECT_EQ(di->totalParcels, first.lengthParcels());
    }
}

TEST(FoldDecoder, ThreeParcelBranchesAreNotFolded)
{
    const auto w = parcels({
        Instruction::alu(Opcode::kAdd, Operand::stack(0), Operand::imm(1)),
        Instruction::branchFar(Opcode::kJmp, BranchMode::kAbs, 0x4000),
    });
    FoldDecoder dec(FoldPolicy::kCrisp);
    const auto di = dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(di);
    EXPECT_FALSE(di->folded);
    EXPECT_EQ(di->ctl, Ctl::kSeq);
}

TEST(FoldDecoder, LoneBranchEntry)
{
    const auto w = parcels({
        Instruction::branchRel(Opcode::kIfFJmp, 0x40, false),
    });
    FoldDecoder dec(FoldPolicy::kCrisp);
    const auto di = dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(di);
    EXPECT_TRUE(di->loneBranch);
    EXPECT_EQ(di->ctl, Ctl::kCondF);
    EXPECT_EQ(di->archCount(), 1);
    EXPECT_EQ(di->takenPc, 0x2040u);
    EXPECT_EQ(di->seqPc, 0x2002u);
}

TEST(FoldDecoder, CallAndReturnEntries)
{
    {
        const auto w = parcels({Instruction::branchFar(
            Opcode::kCall, BranchMode::kAbs, 0x3000)});
        FoldDecoder dec(FoldPolicy::kCrisp);
        const auto di = dec.decodeAt(0x2000, w, true).di;
        ASSERT_TRUE(di);
        EXPECT_EQ(di->ctl, Ctl::kCall);
        EXPECT_EQ(di->takenPc, 0x3000u);
        EXPECT_EQ(di->callRetPc, 0x2006u);
    }
    {
        const auto w = parcels({Instruction::ret(3)});
        FoldDecoder dec(FoldPolicy::kCrisp);
        const auto di = dec.decodeAt(0x2000, w, true).di;
        ASSERT_TRUE(di);
        EXPECT_EQ(di->ctl, Ctl::kRet);
    }
}

TEST(FoldDecoder, IndirectJumpEntry)
{
    const auto w = parcels({Instruction::branchFar(
        Opcode::kJmp, BranchMode::kIndAbs, 0x8000)});
    FoldDecoder dec(FoldPolicy::kCrisp);
    const auto di = dec.decodeAt(0x2000, w, true).di;
    ASSERT_TRUE(di);
    EXPECT_EQ(di->ctl, Ctl::kIndirect);
    EXPECT_EQ(di->bmode, BranchMode::kIndAbs);
    EXPECT_EQ(di->spec, 0x8000u);
}

TEST(FoldDecoder, WaitsForFoldLookahead)
{
    // Window holds exactly the carrier; decoder must wait unless the
    // text ends here.
    const auto w = parcels({
        Instruction::alu(Opcode::kAdd, Operand::stack(0), Operand::imm(1)),
    });
    FoldDecoder dec(FoldPolicy::kCrisp);
    EXPECT_FALSE(dec.decodeAt(0x2000, w, /*at_end=*/false).di);
    const auto di = dec.decodeAt(0x2000, w, /*at_end=*/true).di;
    ASSERT_TRUE(di);
    EXPECT_FALSE(di->folded);
}

TEST(FoldDecoder, BadWordAfterCarrierLeavesItUnfolded)
{
    // A nop followed by 0xFC00, a one-parcel word with a bad opcode.
    // Only a short branch folds, so only its majors are decoded ahead:
    // the nop decodes alone and the error stays with the bad word.
    const std::vector<Parcel> w = {parcels({Instruction::nop()})[0],
                                   0xFC00};
    for (FoldPolicy fp : {FoldPolicy::kCrisp, FoldPolicy::kAll}) {
        const FoldDecoder dec(fp);
        const FoldDecode d = dec.decodeAt(0x1006, w, true);
        EXPECT_EQ(d.error, nullptr);
        ASSERT_TRUE(d.di);
        EXPECT_FALSE(d.di->folded);
        EXPECT_EQ(d.di->totalParcels, 1);
        EXPECT_EQ(d.di->seqPc, 0x1008u);
        const FoldDecode bad =
            dec.decodeAt(0x1008, std::span(w).subspan(1), true);
        EXPECT_FALSE(bad.di);
        EXPECT_STREQ(bad.error, "decode: bad opcode");
    }
}

TEST(FoldDecoder, WindowNeed)
{
    FoldDecoder dec(FoldPolicy::kCrisp);
    Parcel buf[kMaxParcels];
    encode(Instruction::alu(Opcode::kAdd, Operand::stack(0),
                            Operand::imm(1)),
           buf);
    EXPECT_EQ(dec.windowNeed(buf[0]), 2); // 1 + fold lookahead
    encode(Instruction::branchRel(Opcode::kJmp, 0x10), buf);
    EXPECT_EQ(dec.windowNeed(buf[0]), 1); // branches never fold forward
    encode(Instruction::mov(Operand::abs(0x20000), Operand::imm(1 << 20)),
           buf);
    EXPECT_EQ(dec.windowNeed(buf[0]), 5); // 5-parcel, no fold (kCrisp)
    encode(Instruction::ret(1), buf);
    EXPECT_EQ(dec.windowNeed(buf[0]), 1);
}

TEST(FoldDecoder, PredictionBitSelectsPaths)
{
    for (bool pred : {false, true}) {
        const auto w = parcels({
            Instruction::mov(Operand::stack(0), Operand::stack(1)),
            Instruction::branchRel(Opcode::kIfTJmp, 0x10, pred),
        });
        FoldDecoder dec(FoldPolicy::kCrisp);
        const auto di = dec.decodeAt(0x2000, w, true).di;
        ASSERT_TRUE(di);
        EXPECT_EQ(di->predictTaken, pred);
        EXPECT_TRUE(di->condTaken(true));
        EXPECT_FALSE(di->condTaken(false));
    }
}

TEST(Dic, FillLookupAndConflicts)
{
    DecodedCache dic(32);
    DecodedInst a;
    a.pc = 0x1000;
    DecodedInst b;
    b.pc = 0x1000 + 32 * kParcelBytes; // same index, different tag

    EXPECT_EQ(dic.lookup(a.pc), nullptr);
    dic.fill(a);
    ASSERT_NE(dic.lookup(a.pc), nullptr);
    EXPECT_EQ(dic.lookup(a.pc)->pc, a.pc);
    EXPECT_EQ(dic.lookup(b.pc), nullptr);

    dic.fill(b); // evicts a (direct mapped)
    EXPECT_EQ(dic.lookup(a.pc), nullptr);
    ASSERT_NE(dic.lookup(b.pc), nullptr);
}

TEST(Dic, DistinctEntriesForOddAlignment)
{
    // Entries at consecutive parcel addresses use different slots.
    DecodedCache dic(32);
    DecodedInst a;
    a.pc = 0x1000;
    DecodedInst b;
    b.pc = 0x1002;
    dic.fill(a);
    dic.fill(b);
    EXPECT_NE(dic.lookup(0x1000), nullptr);
    EXPECT_NE(dic.lookup(0x1002), nullptr);
}

TEST(Dic, RequiresPowerOfTwo)
{
    EXPECT_THROW(DecodedCache(0), CrispError);
    EXPECT_THROW(DecodedCache(3), CrispError);
    EXPECT_THROW(DecodedCache(-8), CrispError);
    EXPECT_NO_THROW(DecodedCache(1));
    EXPECT_NO_THROW(DecodedCache(64));
}

/**
 * Property: for any (carrier, branch) pair allowed by a policy, the
 * folded entry's architectural meaning equals the two instructions in
 * sequence: same body, branch target = carrier end + branch
 * displacement.
 */
class FoldProperty
    : public ::testing::TestWithParam<std::tuple<FoldPolicy, int>>
{
};

TEST_P(FoldProperty, TargetsAndLengthsConsistent)
{
    const auto [policy, disp_words] = GetParam();
    const std::int32_t disp = disp_words * 2;

    const Instruction carriers[] = {
        Instruction::alu(Opcode::kAdd, Operand::stack(0),
                         Operand::imm(1)),
        Instruction::cmp(Opcode::kCmpLt, Operand::stack(0),
                         Operand::imm(1024)),
        Instruction::mov(Operand::abs(0x20000), Operand::imm(1 << 20)),
        Instruction::enter(4),
    };
    for (const Instruction& carrier : carriers) {
        const auto w = parcels(
            {carrier, Instruction::branchRel(Opcode::kIfTJmp, disp)});
        FoldDecoder dec(policy);
        const Addr pc = 0x2000;
        const auto di = dec.decodeAt(pc, w, true).di;
        ASSERT_TRUE(di);
        const Addr branch_pc = pc + carrier.lengthBytes();
        if (di->folded) {
            EXPECT_EQ(di->takenPc, branch_pc + static_cast<Addr>(disp));
            EXPECT_EQ(di->seqPc, branch_pc + kParcelBytes);
            EXPECT_EQ(di->body, carrier);
        } else {
            // Not folded: the branch must decode as its own lone entry.
            EXPECT_EQ(di->seqPc, branch_pc);
            const auto lone = dec.decodeAt(
                branch_pc,
                std::span<const Parcel>(
                    w.data() + carrier.lengthParcels(), 1),
                true).di;
            ASSERT_TRUE(lone);
            EXPECT_TRUE(lone->loneBranch);
            EXPECT_EQ(lone->takenPc, branch_pc + static_cast<Addr>(disp));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FoldProperty,
    ::testing::Combine(::testing::Values(FoldPolicy::kNone,
                                         FoldPolicy::kCrisp,
                                         FoldPolicy::kAll),
                       ::testing::Values(-512, -16, 0, 16, 511)));

} // namespace
} // namespace crisp
