/**
 * @file
 * Tests pinning the cycle simulator's host-speed paths.
 *
 * The PDR stage decodes only through the whole-program predecode
 * tables. PredecodeCache.AgreesWithEveryDecodeWindow proves that this
 * matches decoding the instruction queue: for every text address, fold
 * policy and window length, FoldDecoder::decodeAt yields an entry
 * exactly when the PDR window gate opens, and that entry is the
 * memoized one. Replays through a shared cache and CrispCpu::reset()
 * must match fresh machines in SimStats (operator==, which includes
 * every counter and the fault string) and event for event in the
 * retire-order instruction and branch traces.
 *
 * MemoryImage::revert, which every reset leans on, is pinned at the
 * bottom.
 */

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "interp/memory_image.hh"
#include "interp/trace.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"
#include "sim/predecode.hh"
#include "verify/generator.hh"

namespace
{

using namespace crisp;
using verify::generate;

/** Records the architectural retire stream for exact comparison. */
class RetireRecorder : public ExecObserver
{
  public:
    void
    onInstruction(Addr pc, Opcode op) override
    {
        instrs.emplace_back(pc, op);
    }

    void onBranch(const BranchEvent& ev) override { branches.push_back(ev); }

    std::vector<std::pair<Addr, Opcode>> instrs;
    std::vector<BranchEvent> branches;
};

bool
sameBranchEvent(const BranchEvent& a, const BranchEvent& b)
{
    return a.pc == b.pc && a.op == b.op &&
           a.conditional == b.conditional && a.taken == b.taken &&
           a.predictTaken == b.predictTaken && a.target == b.target &&
           a.fallThrough == b.fallThrough && a.shortForm == b.shortForm;
}

struct RunResult
{
    SimStats stats;
    RetireRecorder trace;
};

void
expectIdentical(const RunResult& got, const RunResult& want,
                const std::string& label)
{
    EXPECT_TRUE(got.stats == want.stats)
        << label << "\ngot:\n"
        << got.stats.toString() << "\nwant:\n"
        << want.stats.toString();
    ASSERT_EQ(got.trace.instrs.size(), want.trace.instrs.size())
        << label;
    for (std::size_t i = 0; i < got.trace.instrs.size(); ++i) {
        ASSERT_EQ(got.trace.instrs[i], want.trace.instrs[i])
            << label << " instruction " << i;
    }
    ASSERT_EQ(got.trace.branches.size(), want.trace.branches.size())
        << label;
    for (std::size_t i = 0; i < got.trace.branches.size(); ++i) {
        ASSERT_TRUE(sameBranchEvent(got.trace.branches[i],
                                    want.trace.branches[i]))
            << label << " branch " << i;
    }
}

// ------------------------------------------------------------ replays

/** Replays through a shared PredecodeCache and through CrispCpu::reset()
 *  must be indistinguishable from fresh machines: identical stats,
 *  traces, and final architectural state, run after run. This pins the
 *  crisptorture / bench_perf replay pattern. */
TEST(PerfPaths, SharedCacheAndResetReplaysIdentical)
{
    for (std::uint64_t s = 1; s <= 25; ++s) {
        const Program prog = generate(s).link();
        SimConfig cfg;
        cfg.checkDecode = (s % 3 == 0);
        cfg.maxCycles = 1'000'000;

        PredecodeCache shared(prog);
        CrispCpu reused(prog, cfg, &shared);
        for (int replay = 0; replay < 3; ++replay) {
            RunResult fresh;
            CrispCpu ref(prog, cfg);
            fresh.stats = ref.run(&fresh.trace);

            RunResult replayed;
            if (replay != 0)
                reused.reset();
            replayed.stats = reused.run(&replayed.trace);

            expectIdentical(replayed, fresh,
                            "seed " + std::to_string(s) + " replay " +
                                std::to_string(replay));
            EXPECT_EQ(reused.sp(), ref.sp());
            EXPECT_EQ(reused.accum(), ref.accum());
            EXPECT_EQ(reused.flag(), ref.flag());
            EXPECT_EQ(reused.nextIssuePc(), ref.nextIssuePc());
        }
    }
}

// ------------------------------------------------ predecode unit tests

/** Per-policy tables must not bleed into each other: the same address
 *  folds under kCrisp and must stay unfolded under kNone, in either
 *  query order. */
TEST(PredecodeCache, PolicyTablesAreIsolated)
{
    const Program prog = generate(7).link();
    PredecodeCache cache(prog);

    // Find a foldable pair via the kCrisp table.
    const FoldDecoder crispDec(FoldPolicy::kCrisp);
    Addr folded_pc = 0;
    bool found = false;
    Addr pc = prog.textBase;
    while (pc < prog.textEnd()) {
        const auto& e = cache.at(pc, FoldPolicy::kCrisp);
        ASSERT_TRUE(e.valid);
        if (e.di.folded && !found) {
            folded_pc = pc;
            found = true;
        }
        pc += static_cast<Addr>(e.di.totalParcels) * kParcelBytes;
    }
    ASSERT_TRUE(found) << "seed 7 produced no foldable pair";

    // kNone at the same address: unfolded, shorter entry.
    const auto& none = cache.at(folded_pc, FoldPolicy::kNone);
    ASSERT_TRUE(none.valid);
    EXPECT_FALSE(none.di.folded);
    const auto& crisp = cache.at(folded_pc, FoldPolicy::kCrisp);
    ASSERT_TRUE(crisp.valid);
    EXPECT_TRUE(crisp.di.folded);
    EXPECT_EQ(crisp.di.totalParcels, none.di.totalParcels + 1);
}

/**
 * The PDR stage gates on queue occupancy, then reads the memoized entry
 * in place of decoding the queue. For every text parcel address, fold
 * policy and window length w up to one past the longest instruction, a
 * fresh decodeAt over the w parcels at that address must yield an entry
 * exactly when the PDR gate (FoldDecoder::windowReady) opens, that
 * entry must equal the memoized one field by field, and a window that
 * throws must make the table throw too.
 */
TEST(PredecodeCache, AgreesWithEveryDecodeWindow)
{
    for (std::uint64_t s = 1; s <= 200; ++s) {
        const Program prog = generate(s).link();
        PredecodeCache cache(prog);
        const std::size_t n = prog.text.size();
        for (FoldPolicy fp : {FoldPolicy::kNone, FoldPolicy::kCrisp,
                              FoldPolicy::kAll}) {
            const FoldDecoder dec(fp);
            for (std::size_t idx = 0; idx < n; ++idx) {
                const Addr pc =
                    prog.textBase + static_cast<Addr>(idx) * kParcelBytes;
                const std::size_t max_w = std::min<std::size_t>(
                    n - idx, static_cast<std::size_t>(kMaxParcels) + 1);
                for (std::size_t w = 0; w <= max_w; ++w) {
                    const bool at_end = idx + w == n;
                    const bool gate = dec.windowReady(
                        prog.text[idx], static_cast<int>(w), at_end);
                    const auto where = [&] {
                        return "seed " + std::to_string(s) + " fold " +
                               std::to_string(static_cast<int>(fp)) +
                               " pc " + std::to_string(pc) + " window " +
                               std::to_string(w);
                    };
                    std::optional<DecodedInst> fresh;
                    try {
                        fresh = dec.decodeAt(
                            pc, {prog.text.data() + idx, w}, at_end);
                    } catch (const CrispError&) {
                        EXPECT_THROW(cache.at(pc, fp), CrispError)
                            << where();
                        continue;
                    }
                    ASSERT_EQ(fresh.has_value(), gate) << where();
                    if (!gate)
                        continue;
                    const PredecodeCache::Entry& e = cache.at(pc, fp);
                    ASSERT_TRUE(e.valid) << where();
                    ASSERT_TRUE(*fresh == e.di)
                        << where() << "\nwindow: " << fresh->toString()
                        << "\ntable:  " << e.di.toString();
                }
            }
        }
    }
}

/** Misaligned or out-of-text queries are rejected, never table reads. */
TEST(PredecodeCache, RejectsBadAddresses)
{
    const Program prog = generate(1).link();
    PredecodeCache cache(prog);
    EXPECT_THROW(cache.at(prog.textBase + 1, FoldPolicy::kCrisp),
                 CrispError);
    EXPECT_THROW(cache.at(prog.textEnd(), FoldPolicy::kCrisp),
                 CrispError);
}

/** The instruction queue size is validated input: a queue outside
 *  [1, Pdu::kMaxQueueParcels] is rejected at construction. */
TEST(PerfPaths, OversizedQueueRejected)
{
    const Program prog = generate(1).link();
    SimConfig cfg;
    cfg.queueParcels = 65;
    EXPECT_THROW(CrispCpu cpu(prog, cfg), CrispError);
    cfg.queueParcels = 0;
    EXPECT_THROW(CrispCpu cpu2(prog, cfg), CrispError);
}

// -------------------------------------------- MemoryImage::revert edges

/** revert() must reproduce load() bit-for-bit, not just "close enough".
 *  The dirty-line bookkeeping is what crispd's replay path (and every
 *  CrispCpu::reset) leans on, so these pin its corner cases. */

/** A 4-byte store only dirties part of a 64-byte line; revert must
 *  restore the whole line — including the line-straddling store whose
 *  first and last byte land in different lines. */
TEST(MemoryImageRevert, PartialAndStraddlingLineWrites)
{
    const Program prog = generate(3).link();
    MemoryImage img(prog);
    const MemoryImage pristine(prog);

    const Addr sp_top = prog.memBytes - 128;
    img.write32(sp_top + 20, 0xdeadbeef);  // interior of one line
    img.write32(sp_top + 62, 0xfeedface);  // straddles two lines
    img.write32(prog.dataBase, 0x12345678);  // dirties a data-segment line
    img.write32(prog.textBase, 0x0bad0bad);  // dirties a text-segment line

    img.revert(prog);
    EXPECT_EQ(img.bytes(), pristine.bytes());
}

/** revert on a clean image is a no-op, and revert-after-revert keeps
 *  producing the pristine image (the dirty set must actually clear). */
TEST(MemoryImageRevert, RevertAfterRevertIsIdempotent)
{
    const Program prog = generate(5).link();
    MemoryImage img(prog);
    const MemoryImage pristine(prog);

    img.revert(prog); // nothing dirty: must not disturb anything
    EXPECT_EQ(img.bytes(), pristine.bytes());

    img.write32(prog.dataBase + 8, 0xabadcafe);
    img.revert(prog);
    EXPECT_EQ(img.bytes(), pristine.bytes());
    img.revert(prog); // second revert sees a clean dirty set
    EXPECT_EQ(img.bytes(), pristine.bytes());
}

/** The last line of an image whose size is not a multiple of the line
 *  granule is shorter than 64 bytes; reverting a store there must stay
 *  in bounds (ASan-backed) and still restore exactly. */
TEST(MemoryImageRevert, OddSizedImageBoundaryLine)
{
    Program prog = generate(2).link();
    prog.memBytes = (prog.memBytes & ~Addr{63}) + 36; // ragged last line
    MemoryImage img(prog);
    const MemoryImage pristine(prog);

    img.write32(prog.memBytes - 4, 0x5a5a5a5a); // last writable word
    img.revert(prog);
    EXPECT_EQ(img.bytes(), pristine.bytes());
    EXPECT_THROW(img.write32(prog.memBytes - 3, 1), CrispError);
}

/** The word journal is an alternative undo log for small write sets;
 *  past kJournalCap writes revert falls back to the dirty-line bitmap.
 *  Both paths must reproduce load() bit-for-bit — sweep write counts
 *  across the cap so the same test drives journal-only reverts, the
 *  exact-cap edge, and forced-overflow bitmap reverts. */
TEST(MemoryImageRevert, JournalAndBitmapPathsAgreeAcrossTheCap)
{
    const Program prog = generate(7).link();
    const MemoryImage pristine(prog);
    const std::uint32_t counts[] = {1, MemoryImage::kJournalCap - 1,
                                    MemoryImage::kJournalCap,
                                    MemoryImage::kJournalCap + 1,
                                    3 * MemoryImage::kJournalCap};
    for (const std::uint32_t n : counts) {
        MemoryImage img(prog);
        for (std::uint32_t i = 0; i < n; ++i) {
            // Overlapping rewrites of a few addresses plus a moving
            // cursor: the journal must undo in LIFO order to get the
            // overlaps right.
            img.write32(prog.dataBase + (i % 5) * 4, 0xa0000000u + i);
            img.write32(prog.dataBase + 64 + (i % 97) * 4,
                        0xb0000000u + i);
        }
        EXPECT_EQ(img.journalOverflowed(),
                  2 * n > MemoryImage::kJournalCap)
            << n << " write pairs";
        img.revert(prog);
        EXPECT_EQ(img.bytes(), pristine.bytes()) << n << " write pairs";
        EXPECT_EQ(img.journalDepth(), 0u);
        EXPECT_FALSE(img.journalOverflowed());
    }
}

/** Revert-after-revert through the journal path: the journal must
 *  drain on the first revert, so the second sees an empty log (and an
 *  overflowed journal must not stay overflowed across reverts). */
TEST(MemoryImageRevert, JournalDrainsAcrossConsecutiveReverts)
{
    const Program prog = generate(11).link();
    const MemoryImage pristine(prog);
    MemoryImage img(prog);

    img.write32(prog.dataBase, 0x11111111);
    img.write32(prog.dataBase, 0x22222222); // same word twice: LIFO
    EXPECT_EQ(img.journalDepth(), 2u);
    img.revert(prog);
    EXPECT_EQ(img.bytes(), pristine.bytes());
    img.revert(prog); // empty journal: must stay pristine
    EXPECT_EQ(img.bytes(), pristine.bytes());

    // Overflow, revert (bitmap path), then a small write set again:
    // the next revert must be journal-served, not poisoned by the
    // earlier overflow.
    for (std::uint32_t i = 0; i <= MemoryImage::kJournalCap; ++i)
        img.write32(prog.dataBase + (i % 128) * 4, i);
    EXPECT_TRUE(img.journalOverflowed());
    img.revert(prog);
    EXPECT_EQ(img.bytes(), pristine.bytes());
    img.write32(prog.dataBase + 16, 0xcafef00d);
    EXPECT_FALSE(img.journalOverflowed());
    EXPECT_EQ(img.journalDepth(), 1u);
    img.revert(prog);
    EXPECT_EQ(img.bytes(), pristine.bytes());
}

/** A store into the text window must bump the fast engine's
 *  translation epoch on the reset that reverts it — exactly once: the
 *  following clean replay reverts nothing and must not bump again. */
TEST(MemoryImageRevert, TextDirtyResetBumpsTranslationEpochOnce)
{
    Program p;
    p.append(Instruction::mov(Operand::abs(kTextBase),
                              Operand::imm(0x7777)));
    p.append(Instruction::halt());

    FastEngine eng(p);
    EXPECT_EQ(eng.translationEpoch(), 1u);
    eng.run();
    eng.reset();
    EXPECT_EQ(eng.translationEpoch(), 2u);

    // The replay dirties text again: each dirty reset bumps once.
    eng.run();
    eng.reset();
    EXPECT_EQ(eng.translationEpoch(), 3u);

    // A clean program never bumps, however many replays run.
    Program clean;
    clean.append(Instruction::mov(Operand::accum(), Operand::imm(1)));
    clean.append(Instruction::halt());
    FastEngine keep(clean);
    for (int r = 0; r < 3; ++r) {
        keep.run();
        keep.reset();
        EXPECT_EQ(keep.translationEpoch(), 1u) << "replay " << r;
    }
}

/** The service replay pattern: dirty-write, revert, dirty-write the
 *  same run again — the image after each replay must equal a fresh
 *  image given the same writes, run after run. */
TEST(MemoryImageRevert, ReplayEqualsFreshLoadEveryRun)
{
    const Program prog = generate(9).link();
    MemoryImage reused(prog);
    for (int run = 0; run < 3; ++run) {
        if (run != 0)
            reused.revert(prog);
        MemoryImage fresh(prog);
        for (Addr a = prog.dataBase; a + 4 <= prog.dataBase + 96;
             a += 12) {
            reused.write32(a, 0x1000u + a);
            fresh.write32(a, 0x1000u + a);
        }
        const Addr stack = prog.memBytes - 128;
        reused.write32(stack, 0x77u);
        fresh.write32(stack, 0x77u);
        EXPECT_EQ(reused.bytes(), fresh.bytes()) << "run " << run;
    }
}

} // namespace
