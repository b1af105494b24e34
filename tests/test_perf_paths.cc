/**
 * @file
 * Tests pinning the cycle simulator's host-speed paths.
 *
 * The PDR stage decodes only through the whole-program predecode
 * tables. PredecodeCache.AgreesWithEveryDecodeWindow proves that this
 * matches decoding the instruction queue: for every text address, fold
 * policy and window length, FoldDecoder::decodeAt yields an entry
 * exactly when the PDR window gate opens, and that entry is the
 * memoized one. Fresh machines over a shared cache must match machines
 * over private tables in SimStats (operator==, which includes every
 * counter and the fault string) and event for event in the retire-order
 * instruction and branch traces.
 */

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "interp/trace.hh"
#include "sim/cpu.hh"
#include "sim/predecode.hh"
#include "verify/enginediff.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"

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

/** Fresh machines over one shared PredecodeCache must be
 *  indistinguishable from machines over private tables: identical
 *  stats, traces, and final architectural state, run after run. This
 *  pins the pattern of crispd's registry and bench_perf's replays. */
TEST(PerfPaths, SharedCacheAndResetReplaysIdentical)
{
    for (std::uint64_t s = 1; s <= 25; ++s) {
        const Program prog = generate(s).link();
        SimConfig cfg;
        cfg.checkDecode = (s % 3 == 0);
        cfg.maxCycles = 1'000'000;

        PredecodeCache shared(prog);
        for (int replay = 0; replay < 3; ++replay) {
            RunResult fresh;
            CrispCpu ref(prog, cfg);
            fresh.stats = ref.run(&fresh.trace);

            RunResult replayed;
            CrispCpu warm(prog, cfg, &shared);
            replayed.stats = warm.run(&replayed.trace);

            expectIdentical(replayed, fresh,
                            "seed " + std::to_string(s) + " replay " +
                                std::to_string(replay));
            EXPECT_EQ(warm.sp(), ref.sp());
            EXPECT_EQ(warm.accum(), ref.accum());
            EXPECT_EQ(warm.flag(), ref.flag());
            EXPECT_EQ(warm.nextIssuePc(), ref.nextIssuePc());
            EXPECT_EQ(warm.memory().bytes(), ref.memory().bytes());
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
 * does not decode must leave the decoder's error message in the entry.
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
                    const FoldDecode d = dec.decodeAt(
                        pc, {prog.text.data() + idx, w}, at_end);
                    if (d.error != nullptr) {
                        const PredecodeCache::Entry& e = cache.at(pc, fp);
                        EXPECT_FALSE(e.valid) << where();
                        ASSERT_NE(e.error, nullptr) << where();
                        EXPECT_STREQ(e.error, d.error) << where();
                        continue;
                    }
                    const std::optional<DecodedInst>& fresh = d.di;
                    ASSERT_EQ(fresh.has_value(), gate) << where();
                    if (!gate)
                        continue;
                    const PredecodeCache::Entry& e = cache.at(pc, fp);
                    ASSERT_TRUE(e.valid) << where();
                    EXPECT_EQ(e.error, nullptr) << where();
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

/** Minor page faults this thread has taken so far. */
long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_minflt;
}

/** A lockstep runner builds and drops two 256 KiB images per call;
 *  the per-thread stash of released buffers lets the next call reuse
 *  both, so short legs stop faulting fresh pages in (26.6 faults per
 *  call without the stash, 0.17 with it). A count, not a time, so host
 *  noise does not move it. */
TEST(PerfPaths, LockstepLegsReuseTheirImages)
{
#ifdef CRISP_SANITIZED
    GTEST_SKIP() << "sanitizers replace the allocator";
#endif
    std::vector<Program> progs;
    for (std::uint64_t s = 1; s <= 100; ++s)
        progs.push_back(generate(s).link());
    ASSERT_TRUE(verify::runLockstep(progs[0]).ok());
    ASSERT_TRUE(verify::runFastLockstep(progs[0]).ok());

    const long before = minorFaults();
    for (const Program& prog : progs) {
        ASSERT_TRUE(verify::runLockstep(prog).ok());
        ASSERT_TRUE(verify::runFastLockstep(prog).ok());
    }
    const double per_call = static_cast<double>(minorFaults() - before) /
                            static_cast<double>(2 * progs.size());
    EXPECT_LT(per_call, 4.0);
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

} // namespace
