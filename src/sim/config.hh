/**
 * @file
 * Configuration knobs for the cycle-level CRISP simulator.
 */

#ifndef CRISP_SIM_CONFIG_HH
#define CRISP_SIM_CONFIG_HH

#include <cstdint>
#include <string_view>

namespace crisp
{

/**
 * Which execution engine produced a result.
 *
 *  - kCycle: the cycle-accurate three-stage pipeline (CrispCpu) — the
 *    timing oracle; every counter in SimStats is meaningful.
 *  - kFast: the threaded-code functional engine (FastEngine) — same
 *    architectural results, no timing (cycles stay 0); the default for
 *    consumers that only want architectural stats.
 *  - kInterp: the reference interpreter — the golden model both other
 *    engines are verified against.
 *
 * The value is carried in SimStats, `crisprun --stats-json`, and the
 * crispd wire protocol, and is part of the service's result-cache key:
 * results from different engines are never interchangeable (their
 * timing fields differ by construction).
 */
enum class EngineKind : std::uint8_t {
    kCycle = 0,
    kFast = 1,
    kInterp = 2,
};

inline std::string_view
engineName(EngineKind e)
{
    switch (e) {
      case EngineKind::kCycle:
        return "cycle";
      case EngineKind::kFast:
        return "fast";
      case EngineKind::kInterp:
        return "interp";
    }
    return "?";
}

/** How the EU predicts speculative conditional branches. */
enum class PredictorKind : std::uint8_t {
    /** The paper's choice: the compiler-set static bit. */
    kStaticBit,
    /** 1-bit dynamic history (predict same as last time). */
    kDynamic1,
    /** 2-bit saturating counters (J. Smith weighting). */
    kDynamic2,
};

/** Which instruction pairs the PDU is allowed to fold. */
enum class FoldPolicy : std::uint8_t {
    /** No folding: every branch occupies an EU pipeline slot. */
    kNone,
    /**
     * The CRISP policy: fold one- and three-parcel non-branch
     * instructions with a following one-parcel branch. "Doing the
     * remaining cases significantly increases the amount of hardware
     * required, with only a marginal increase in performance."
     */
    kCrisp,
    /** Also fold five-parcel carriers (the hardware-expensive case). */
    kAll,
};

/** Cycle-level simulator configuration. */
struct SimConfig
{
    FoldPolicy foldPolicy = FoldPolicy::kCrisp;

    /**
     * Honor the static prediction bit in conditional branches. When
     * false the hardware behaves as a predict-not-taken machine
     * regardless of the compiler's bit (ablation only).
     */
    bool respectPredictionBit = true;

    /** Number of Decoded Instruction Cache entries (power of two). */
    int dicEntries = 32;

    /** Main-memory latency in cycles for one 4-parcel fetch block. */
    int memLatency = 3;

    /** Instruction queue capacity in parcels (the paper's is 8). */
    int queueParcels = 8;

    /** Give up after this many cycles (runaway-program guard). When the
     *  limit expires SimStats::timedOut is set — a typed diagnostic, not
     *  a silent early return. */
    std::uint64_t maxCycles = 2'000'000'000ULL;

    /**
     * Retire-time decode checker: before an entry retires, re-derive the
     * golden decode of the program text at its PC and verify the cached
     * Next-PC / Alternate-PC / body / modifies-CC metadata against it.
     * Mismatches raise DicCorruptionError as a precise machine fault
     * before any architectural state is touched. Hint state (the static
     * prediction bit, the fold decision itself) is deliberately excluded:
     * faults there are architecturally benign by design. Off by default
     * (it checks every retire); torture/fault-injection runs enable
     * it.
     */
    bool checkDecode = false;

    /**
     * Hardware prediction scheme for conditional branches whose
     * outcome is unknown at issue. CRISP shipped kStaticBit; the
     * dynamic options model the "more complex schemes" the paper
     * evaluated and rejected (a direct-mapped on-chip history table).
     */
    PredictorKind predictor = PredictorKind::kStaticBit;

    /** History-table entries for the dynamic predictors (power of 2). */
    int predictorEntries = 256;

    /** Stack cache capacity in words (top-of-stack window). */
    int stackCacheWords = 32;

    /**
     * Extra issue-stall cycles per stack-cache miss. 0 (the default)
     * keeps the paper's Table 4 timing (its frames fit trivially);
     * raise it to study deep-recursion behaviour.
     */
    int stackCacheMissPenalty = 0;
};

} // namespace crisp

#endif // CRISP_SIM_CONFIG_HH
