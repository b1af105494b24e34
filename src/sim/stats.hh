/**
 * @file
 * Statistics collected by the cycle-level simulator.
 *
 * The three headline metrics mirror the paper's Table 4:
 *  - cycles
 *  - instructions issued by the Execution Unit pipeline (folded branches
 *    do not appear here)
 *  - apparent instructions (the black-box architectural count, equal to
 *    the functional interpreter's instruction count)
 */

#ifndef CRISP_SIM_STATS_HH
#define CRISP_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>

#include "config.hh"
#include "isa/opcode.hh"

namespace crisp
{

struct SimStats
{
    /** Which engine produced this result (cycle pipeline, threaded
     *  fast engine, or the reference interpreter). Functional engines
     *  leave every timing counter at zero. */
    EngineKind engine = EngineKind::kCycle;

    std::uint64_t cycles = 0;

    /** Decoded instructions retired by the EU pipeline. */
    std::uint64_t issued = 0;

    /** Architecturally executed instructions (folded branches count). */
    std::uint64_t apparent = 0;

    /** Dynamic opcode histogram over apparent instructions. */
    std::array<std::uint64_t, kOpcodeCount> opcodeCounts{};

    /** Wrong-path decoded instructions squashed before retirement. */
    std::uint64_t squashed = 0;

    /** Branches (of any kind) architecturally executed. */
    std::uint64_t branches = 0;

    /** Branches that were folded into a carrier instruction. */
    std::uint64_t foldedBranches = 0;

    /** Conditional branches architecturally executed. */
    std::uint64_t condBranches = 0;

    /**
     * Conditional branches whose outcome was known at issue because no
     * condition-code writer was in the pipeline (the Branch Spreading
     * payoff: "zero cycles can be lost").
     */
    std::uint64_t resolvedAtIssue = 0;

    /** Conditional branches issued speculatively on the static bit. */
    std::uint64_t speculated = 0;

    /** Speculative conditional branches whose static bit was wrong. */
    std::uint64_t mispredicts = 0;

    /**
     * Total cycles lost to branch resolution across retired branch-site
     * executions: the mispredict staircase (3/2/1 by verification
     * stage) plus the two target-read bubbles of each indirect jump.
     * Exactly the sum of BranchEvent::delayCycles over the run; the
     * static cost engine (src/analysis/cost.hh) brackets it from the
     * binary alone. Return instructions are not branch sites — their
     * target bubbles appear only in indirectStallCycles.
     */
    std::uint64_t branchDelayCycles = 0;

    /** Cycles in which the EU could not issue for any reason. */
    std::uint64_t issueStallCycles = 0;

    /** Issue stalls attributable to Decoded Instruction Cache misses. */
    std::uint64_t dicMissStallCycles = 0;

    /** Issue stalls waiting on mispredict recovery / redirects. */
    std::uint64_t redirectStallCycles = 0;

    /** Issue stalls waiting for an indirect target (returns, case
     *  statements). */
    std::uint64_t indirectStallCycles = 0;

    std::uint64_t dicHits = 0;
    std::uint64_t dicMisses = 0;

    /** Folded pairs created by the PDU decoder (static-stream count). */
    std::uint64_t pduFoldedPairs = 0;

    /** Decoded entries written into the DIC by the PDU. */
    std::uint64_t pduFills = 0;

    /** Four-parcel memory fetch blocks issued by the prefetcher. */
    std::uint64_t memFetches = 0;

    /** Stack-cache operand accesses that hit the top-of-stack window. */
    std::uint64_t stackCacheHits = 0;

    /** Stack operand accesses below the cached window. */
    std::uint64_t stackCacheMisses = 0;

    /** Issue stalls injected by stack-cache miss penalties. */
    std::uint64_t stackPenaltyCycles = 0;

    /** True when the program retired a halt (vs. hitting maxCycles). */
    bool halted = false;

    /** True when run() gave up at SimConfig::maxCycles (watchdog). */
    bool timedOut = false;

    /**
     * True when the run was stopped by the cooperative cancellation
     * flag (CrispCpu::setCancelFlag) — a deadline or shutdown imposed
     * from outside, not an architectural outcome. Exactly one of
     * {halted, timedOut, cancelled, faulted} describes why a run ended.
     */
    bool cancelled = false;

    /**
     * Precise machine fault: an instruction raised an error (e.g. a
     * wild memory access) at retirement. faultPc identifies the exact
     * architectural instruction — the payoff of the side-effect-free
     * ISA and retire-time state update (wrong-path instructions are
     * squashed before they can fault).
     */
    bool faulted = false;
    std::uint32_t faultPc = 0;
    std::string faultReason;

    /** The fault was the retire-time decode checker catching corrupted
     *  DIC metadata (SimConfig::checkDecode). */
    bool dicCorruption = false;

    double
    issuedCpi() const
    {
        return issued ? static_cast<double>(cycles) /
                            static_cast<double>(issued)
                      : 0.0;
    }

    double
    apparentCpi() const
    {
        return apparent ? static_cast<double>(cycles) /
                              static_cast<double>(apparent)
                        : 0.0;
    }

    /**
     * Bitwise-exact equality over every counter, flag and the fault
     * string. The replay tests (tests/test_perf_paths.cc) use it to pin
     * runs over shared predecode tables to runs over private ones.
     */
    bool operator==(const SimStats&) const = default;

    /** Multi-line human-readable dump. */
    std::string toString() const;

    /**
     * Single JSON object with every field (opcodeCounts as an array
     * indexed by opcode value, fault strings escaped). Consumed by
     * `crisprun --stats-json` and the bench harness.
     */
    std::string toJson() const;
};

} // namespace crisp

#endif // CRISP_SIM_STATS_HH
