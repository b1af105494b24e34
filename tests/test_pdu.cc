/**
 * @file
 * Direct unit tests of the Prefetch and Decode Unit: streaming, demand
 * redirects, in-flight fetch discarding, self-tail pausing and the
 * decode window.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "sim/dic.hh"
#include "sim/pdu.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"

namespace crisp
{
namespace
{

struct PduRig
{
    explicit PduRig(const std::string& src, SimConfig cfg = {})
        : prog(assemble(src)), config(cfg), dic(config.dicEntries),
          tables(prog), pdu(prog, config, dic, stats, tables)
    {}

    /** Tick until the DIC holds @p pc or @p limit cycles pass. */
    bool
    tickUntilCached(Addr pc, int limit = 200)
    {
        for (int i = 0; i < limit; ++i) {
            if (dic.lookup(pc) != nullptr)
                return true;
            pdu.tick(static_cast<std::uint64_t>(now++));
        }
        return dic.lookup(pc) != nullptr;
    }

    void
    tickN(int n)
    {
        for (int i = 0; i < n; ++i)
            pdu.tick(static_cast<std::uint64_t>(now++));
    }

    Program prog;
    SimConfig config;
    DecodedCache dic;
    SimStats stats;
    PredecodeCache tables;
    Pdu pdu;
    int now = 0;
};

const char* kStraight = R"(
    .entry s
s:  mov sp[0], 1
    add sp[0], 2
    sub sp[0], 3
    halt
)";

TEST(Pdu, StreamsSequentialCodeIntoTheDic)
{
    PduRig rig(kStraight);
    EXPECT_TRUE(rig.tickUntilCached(rig.prog.entry));
    // Streaming continues past the first instruction without demands.
    const Addr second =
        rig.prog.entry + rig.prog.fetch(rig.prog.entry).lengthBytes();
    EXPECT_TRUE(rig.tickUntilCached(second));
    EXPECT_GT(rig.stats.pduFills, 0u);
    EXPECT_GT(rig.stats.memFetches, 0u);
}

TEST(Pdu, FirstFillTimingMatchesMemoryLatency)
{
    SimConfig cfg;
    cfg.memLatency = 5;
    PduRig rig(kStraight, cfg);
    int cycles = 0;
    while (rig.dic.lookup(rig.prog.entry) == nullptr && cycles < 100) {
        rig.pdu.tick(static_cast<std::uint64_t>(rig.now++));
        ++cycles;
    }
    // fetch (latency) + decode + fill stages.
    EXPECT_GE(cycles, 5 + 2);
    EXPECT_LE(cycles, 5 + 4);
}

TEST(Pdu, DemandRedirectsTheStream)
{
    // Code with a far-away block that sequential streaming from the
    // entry would not reach quickly.
    std::string src = ".entry s\ns:  mov sp[0], 1\n";
    for (int i = 0; i < 300; ++i)
        src += "    nop\n";
    src += "far:\n    add sp[0], 2\n    halt\n";

    PduRig rig(src);
    const Addr far = *rig.prog.lookup("far");
    rig.tickN(5); // start streaming from the entry
    rig.pdu.demand(far);
    EXPECT_TRUE(rig.tickUntilCached(far, 50));
}

TEST(Pdu, RedirectDiscardsStaleInFlightFetch)
{
    std::string src = ".entry s\ns:  mov sp[0], 1\n";
    for (int i = 0; i < 100; ++i)
        src += "    nop\n";
    src += "far:\n    add sp[0], 2\n    halt\n";

    SimConfig cfg;
    cfg.memLatency = 10; // a fetch is in flight for a long time
    PduRig rig(src, cfg);
    rig.tickN(2); // fetch of the entry block is now in flight
    const Addr far = *rig.prog.lookup("far");
    rig.pdu.demand(far); // redirect while busy
    ASSERT_TRUE(rig.tickUntilCached(far, 100));
    // The entry at `far` must decode from the right bytes (the stale
    // entry-block fetch was discarded, not appended).
    const DecodedInst* di = rig.dic.lookup(far);
    ASSERT_NE(di, nullptr);
    EXPECT_EQ(di->body.op, Opcode::kAdd);
}

TEST(Pdu, PausesWhenWrappingIntoWarmCode)
{
    // A short loop: the stream follows the backedge, wraps into its
    // own previously decoded entries, and parks.
    const char* src = R"(
        .entry s
s:      mov sp[0], 0
top:    add sp[0], 1
        cmp.s< sp[0], 10
        iftjmpy top
        halt
    )";
    PduRig rig(src);
    rig.tickN(120);
    const std::uint64_t fills = rig.stats.pduFills;
    rig.tickN(60);
    // No further fills once parked.
    EXPECT_EQ(rig.stats.pduFills, fills);
}

TEST(Pdu, FollowsPredictedTakenBranches)
{
    // An always-taken (predicted-taken) branch: the stream must follow
    // it to the target rather than decoding the dead fall-through.
    const char* src = R"(
        .entry s
        .global g 0
s:      mov g, 1
        jmp target
        mov g, 99           ; dead code
        mov g, 98
target: add g, 2
        halt
    )";
    PduRig rig(src);
    const Addr target = *rig.prog.lookup("target");
    EXPECT_TRUE(rig.tickUntilCached(target, 60));
}

TEST(Pdu, TruncatedInstructionThrows)
{
    // Hand-build a program whose final parcel starts a 3-parcel
    // instruction that runs off the end of the text.
    Program prog;
    Parcel buf[kMaxParcels];
    encode(Instruction::mov(Operand::abs(0x9000), Operand::imm(5)), buf);
    prog.text = {buf[0]}; // first parcel only
    prog.entry = prog.textBase;

    SimConfig cfg;
    SimStats stats;
    DecodedCache dic(cfg.dicEntries);
    PredecodeCache tables(prog);
    Pdu pdu(prog, cfg, dic, stats, tables);
    bool threw = false;
    try {
        for (int i = 0; i < 100; ++i)
            pdu.tick(static_cast<std::uint64_t>(i));
    } catch (const CrispError&) {
        threw = true;
    }
    EXPECT_TRUE(threw);
}

TEST(Pdu, QueueNeverOverflows)
{
    // Long straight-line code; with the smallest legal queue the
    // prefetcher must clip fetch sizes rather than overfill.
    std::string src = ".entry s\ns:\n";
    for (int i = 0; i < 60; ++i)
        src += "    add sp[0], 1\n";
    src += "    halt\n";
    SimConfig cfg;
    cfg.queueParcels = 6; // decode window max (5+1) still fits
    PduRig rig(src, cfg);
    EXPECT_NO_THROW(rig.tickN(300));
    EXPECT_GT(rig.stats.pduFills, 30u);
}

TEST(Pdu, FollowingIntoAnInFlightBlockKeepsPrefetching)
{
    // Decode follows a call or jump to the very block the memory port
    // is fetching: the block lands in the emptied queue, so the next
    // request must start after it, not fetch it again (which discards
    // the block and stalls decode for good). These generated programs
    // hit that case under lockstep.
    for (const std::uint64_t seed :
         {8319765106727904543ull, 13807668353430717067ull,
          7562250431442615400ull, 2383725437548948879ull}) {
        const Program prog = verify::generate(seed).link();
        for (FoldPolicy fp :
             {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
            verify::LockstepOptions opt;
            opt.cfg.foldPolicy = fp;
            const verify::LockstepReport rep =
                verify::runLockstep(prog, opt);
            EXPECT_TRUE(rep.ok())
                << "seed " << seed << " fold " << static_cast<int>(fp)
                << ":\n"
                << rep.toString();
        }
    }
}

} // namespace
} // namespace crisp
