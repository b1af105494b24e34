/**
 * @file
 * The CRISP CPU model: a three-stage Execution Unit (IR, OR, RR) fed
 * from the Decoded Instruction Cache, with the Prefetch and Decode Unit
 * filling the cache from main memory (the paper's Figure 1).
 *
 * Timing model (calibrated against the paper's Table 4):
 *
 *  - The EU issues at most one decoded entry per cycle; an entry issued
 *    in cycle t occupies IR in t, OR in t+1, RR in t+2, and its results
 *    (including the condition flag) are written at the end of t+2.
 *  - A conditional branch issuing while no condition-code writer is in
 *    the pipeline resolves at issue using the actual flag — zero cycles
 *    lost even when the static prediction bit is wrong (the payoff of
 *    Branch Spreading; the hardware uses the dedicated modifies-CC bit
 *    carried with every stage).
 *  - Otherwise it issues speculatively along the predicted path and is
 *    verified later:
 *      * a FOLDED conditional branch is verified when its compare
 *        retires, recovering from the Alternate-PC of whatever stage
 *        the carrier occupies: compare in the same entry -> 3 cycles
 *        lost, one entry ahead -> 2, two ahead -> 1 (the paper's
 *        staircase);
 *      * a LONE (unfolded) conditional branch verifies its prediction
 *        in its own RR stage -> 3 cycles lost on a mispredict. This is
 *        what Table 4's cases A and B measure for adjacent cmp/branch
 *        sequences.
 *  - Returns and indirect jumps obtain their target at retirement;
 *    issue resumes the following cycle (2 bubbles).
 *  - Architectural effects happen in order at retirement, which models
 *    perfect operand bypassing (the paper's cases show no RAW stalls).
 *
 * Host-performance notes (docs/PERFORMANCE.md): the cycle loop is
 * allocation-free — the three EU stages rotate by pointer instead of
 * copying, decode results come from the whole-program predecode cache,
 * and tracing/fault hooks cost one branch each when disabled.
 */

#ifndef CRISP_SIM_CPU_HH
#define CRISP_SIM_CPU_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "config.hh"
#include "decoded.hh"
#include "dic.hh"
#include "fault_hooks.hh"
#include "interp/interpreter.hh"
#include "interp/memory_image.hh"
#include "hw_predictor.hh"
#include "pdu.hh"
#include "predecode.hh"
#include "stack_cache.hh"
#include "stats.hh"

namespace crisp
{

class CrispCpu
{
  public:
    /**
     * @p shared_predecode optionally supplies an external predecode
     * cache so repeated runs of the same program (crispd's program
     * registry, bench_perf's replays) skip all decode work after the
     * first run. The cache is a pure memoization of
     * (text, fold policy) -> decoded entry, so sharing it cannot change
     * simulated behaviour — but it MUST have been built over a Program
     * with the same text segment as @p prog. Pass nullptr (the default)
     * for a private per-run cache.
     */
    CrispCpu(const Program& prog, const SimConfig& cfg = {},
             PredecodeCache* shared_predecode = nullptr);

    // The PDU holds references into this object.
    CrispCpu(const CrispCpu&) = delete;
    CrispCpu& operator=(const CrispCpu&) = delete;

    /**
     * Run to completion (halt) or cfg.maxCycles.
     * @param observer optional architectural retire-order observer; it
     *        sees exactly the event sequence the functional interpreter
     *        would produce (the basis of the equivalence property
     *        tests).
     */
    const SimStats& run(ExecObserver* observer = nullptr);

    /** Advance exactly one cycle. @return false once halted. */
    bool tick(ExecObserver* observer = nullptr);

    // Architectural state (valid after run / between ticks) -----------
    /** Address the EU will try to issue from next (IR.Next-PC). */
    Addr nextIssuePc() const { return nextIssuePc_; }
    Addr sp() const { return sp_; }
    Word accum() const { return accum_; }
    bool flag() const { return flag_; }
    bool halted() const { return halted_; }
    const MemoryImage& memory() const { return mem_; }
    Word wordAt(const std::string& symbol) const;

    const SimStats& stats() const { return stats_; }

    /**
     * Install a per-cycle trace sink; each cycle produces one line of
     * the form `cycle | IR ... | OR ... | RR ... | notes`, the notes
     * naming issue decisions, mispredict recoveries, squashes and
     * cache misses. Pass nullptr to disable.
     */
    void
    setTraceSink(std::function<void(const std::string&)> sink)
    {
        traceSink_ = std::move(sink);
    }

    /**
     * Install a cooperative cancellation flag (not owned; may be
     * null to clear). The cycle loop polls it every few thousand
     * ticks; when it reads true the run stops at the next check with
     * SimStats::cancelled set — no architectural state is corrupted,
     * the machine simply freezes mid-program. This is how crispd
     * enforces per-job wall-clock deadlines and how crisptorture
     * --timeout-ms aborts hung seeds: the flag is typically a
     * util::Watchdog timer armed by the caller.
     */
    void setCancelFlag(const std::atomic<bool>* flag);

    /**
     * Install microarchitectural fault-injection hooks (not owned).
     * Fill-time hooks corrupt/drop entries as the PDU writes the DIC;
     * issue-time hooks corrupt the EU's private IR copy. Combine with
     * SimConfig::checkDecode to assert that non-hint corruption is
     * detected before it can touch architectural state.
     */
    void setFaultHooks(FaultHooks* hooks);

  private:
    /** Why issue is blocked beyond stallUntil_. */
    enum class Block : std::uint8_t { kNone, kIndirect, kHalt };

    struct Stage
    {
        bool valid = false;
        DecodedInst di;
        /** Conditional branch issued on the static bit, unverified. */
        bool specCond = false;
        /** Direction chosen at issue (prediction or actual flag). */
        bool predictedTaken = false;
        /** Outcome was known at issue (no CC writer in flight). */
        bool resolvedAtIssue = false;
        /** Verified direction (filled in at verification/retire). */
        bool actualTaken = false;
        /** The static bit turned out wrong. */
        bool mispredicted = false;
        /**
         * Cycles this entry's branch lost (the paper's staircase):
         * set where the branch is verified — 3 in its own RR, 2/1 when
         * a retiring compare verifies it in OR/IR, 2 for an indirect
         * jump's target read — and reported via BranchEvent at retire.
         */
        std::uint8_t delaySlots = 0;
    };

    void issueStage();
    /** Bulk-skip cycles that are provably identical miss stalls. */
    void maybeSkipStalls();
    void retireStage(ExecObserver* observer);
    void retireImpl(ExecObserver* observer);
    void recordFault(Addr pc, const std::string& reason);
    const DecodedInst& goldenDecodeAt(Addr pc, FoldPolicy policy) const;
    void checkDecodedEntry(const DecodedInst& di) const;
    void executeBody(const DecodedInst& di);
    Word readOperand(const Operand& o) const;
    void writeOperand(const Operand& o, Word v);
    Addr operandAddress(const Operand& o) const;
    void squashYounger(Stage* upto_exclusive);
    void redirectAfterMispredict(const Stage& s);
    void emitRetireEvents(const Stage& s, ExecObserver* observer);

    /** Owned copy: the CPU's lifetime is self-contained. */
    Program prog_;
    SimConfig cfg_;
    MemoryImage mem_;
    DecodedCache dic_;
    SimStats stats_;
    /** Predecode tables shared by the PDU's PDR stage and the
     *  retire-time checker. Owned unless the caller supplied a shared
     *  cache. */
    std::unique_ptr<PredecodeCache> ownedPredecode_;
    PredecodeCache& predecode_;
    Pdu pdu_;

    // Architectural state.
    Addr sp_ = 0;
    Word accum_ = 0;
    bool flag_ = false;
    bool halted_ = false;

    // Pipeline state. The three stages live in a fixed array and
    // advance by pointer rotation: the old RR slot is recycled as the
    // new (empty) IR slot, so a pipeline step copies nothing.
    Stage stages_[3];
    Stage* irP_ = &stages_[0];
    Stage* orP_ = &stages_[1];
    Stage* rrP_ = &stages_[2];
    Stage& irS() { return *irP_; }
    Stage& orS() { return *orP_; }
    Stage& rrS() { return *rrP_; }
    const Stage& irS() const { return *irP_; }
    const Stage& orS() const { return *orP_; }
    const Stage& rrS() const { return *rrP_; }
    Addr nextIssuePc_ = 0;
    std::uint64_t stallUntil_ = 0;
    Block block_ = Block::kNone;
    std::uint64_t now_ = 0;
    Addr lastMissPc_ = ~Addr{0};

    // Speculation source for conditional branches.
    HwPredictor hwPredictor_;

    // Optional fault-injection hooks (not owned).
    FaultHooks* hooks_ = nullptr;

    // Cooperative cancellation: checked every kCancelCheckInterval
    // ticks so the poll costs one predictable branch per cycle.
    static constexpr int kCancelCheckInterval = 4096;
    const std::atomic<bool>* cancel_ = nullptr;
    int cancelCountdown_ = kCancelCheckInterval;

    // Operand-side stack cache (statistics; optional miss penalty).
    mutable StackCache stackCache_;
    std::uint64_t penaltyStall_ = 0;

    // Optional per-cycle tracing.
    std::function<void(const std::string&)> traceSink_;
    std::string traceNote_;
    void noteSlow(const char* what);
    void
    note(const char* what)
    {
        if (traceSink_)
            noteSlow(what);
    }
    void emitTraceLine();
};

} // namespace crisp

#endif // CRISP_SIM_CPU_HH
