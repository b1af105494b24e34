/**
 * @file
 * FastEngine: a direct-threaded functional execution engine over the
 * predecode tables.
 *
 * Where CrispCpu models the paper's hardware cycle by cycle, FastEngine
 * answers only the architectural question — final state, instruction
 * counts, branch trace — as fast as the host allows. It compiles each
 * predecoded DIC line into a threaded-code op (translate.hh) and
 * dispatches with computed goto on GCC/Clang (a switch-threaded
 * fallback is selected by defining CRISP_NO_COMPUTED_GOTO), executing
 * each straight-line run as a superblock: one handler activation
 * retires up to kTraceCap sequential ops under a single cancel/budget
 * poll, and the terminating branch transfers through the translation's
 * pre-resolved Next-PC / Alternate-Next-PC indices, so hot loops never
 * leave translated code. Indirect exits (returns, indirect jumps/calls)
 * carry a monomorphic inline cache: the last target address and its
 * table index, so a stable callee re-enters its trace without an
 * address-to-index lookup.
 *
 * Contracts shared with the other engines:
 *  - architectural-state equivalence with the reference interpreter,
 *    including fault points and messages (enforced by the lockstep
 *    differential in src/verify/enginediff.hh and by
 *    `crisptorture --engine-diff`);
 *  - the cooperative cancel flag is polled on run boundaries (same
 *    kCancelCheckInterval cadence as CrispCpu, overshooting by at most
 *    one run — bounded by kTraceCap);
 *  - SimConfig::maxCycles bounds the run — a functional engine has no
 *    cycles, so the limit is applied to apparent (architectural)
 *    instructions, checked at run boundaries.
 *
 * Warm runs: a Translation built once (e.g. crispd's per program-hash
 * × policy registry entry) can be shared read-only across engines —
 * the constructor then skips the program copy and the whole
 * translate/predecode pass, leaving only the memory image load. The
 * translation derives from the Program, never the image, so a run
 * that stores into its own text window cannot make it stale.
 *
 * Timing fields of SimStats stay zero; `engine` is kFast.
 */

#ifndef CRISP_SIM_FASTENGINE_HH
#define CRISP_SIM_FASTENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config.hh"
#include "interp/interpreter.hh"
#include "interp/memory_image.hh"
#include "isa/program.hh"
#include "predecode.hh"
#include "stats.hh"
#include "translate.hh"

namespace crisp
{

class FastEngine
{
  public:
    /**
     * @p shared_predecode works exactly as for CrispCpu: an optional
     * externally-owned predecode cache (crispd's warmed registry
     * tables) so repeated runs of one program skip all decode work.
     * Must have been built over a Program with the same text segment.
     *
     * @p shared_translation goes one step further: an externally-owned
     * read-only Translation of the same program under the same fold
     * policy (it is rejected otherwise). The engine
     * then borrows the translation's Program — @p prog is only used to
     * seed the memory image — and construction does no decode or
     * translate work at all. The translation must outlive the engine.
     *
     * @p hints optionally carries proven indirect-target sets from the
     * value-set analysis (see IndirectHints); they pre-seed the inline
     * caches. Ignored when a shared translation is passed (the shared
     * table already embeds its own hints).
     */
    explicit FastEngine(const Program& prog, const SimConfig& cfg = {},
                        PredecodeCache* shared_predecode = nullptr,
                        const Translation* shared_translation = nullptr,
                        const IndirectHints* hints = nullptr);

    FastEngine(const FastEngine&) = delete;
    FastEngine& operator=(const FastEngine&) = delete;

    /**
     * Run until halt, fault, cancellation or the instruction budget.
     * @p observer sees exactly the interpreter's event sequence
     * (per-instruction onInstruction calls and BranchEvents); passing
     * one selects a slower per-instruction loop, so lockstep checking
     * costs nothing when unused.
     */
    const SimStats& run(ExecObserver* observer = nullptr);

    /** Cooperative cancellation flag (not owned; null clears). Polled
     *  every few thousand instructions at run boundaries; the run
     *  stops with SimStats::cancelled set and can be resumed by
     *  calling run() again. */
    void
    setCancelFlag(const std::atomic<bool>* flag)
    {
        cancel_ = flag;
    }

    // Architectural state (valid after run) ---------------------------
    /** Address execution would continue from (entry, or the stop
     *  point after a cancel/budget stop). */
    Addr nextPc() const { return pc_; }
    Addr sp() const { return sp_; }
    Word accum() const { return accum_; }
    bool flag() const { return flag_; }
    bool halted() const { return halted_; }
    const MemoryImage& memory() const { return mem_; }
    Word wordAt(const std::string& symbol) const;

    const SimStats& stats() const { return stats_; }

    // Inline-cache telemetry (host-side, non-architectural) -----------
    /** Indirect-exit resolutions served by the monomorphic cache. */
    std::uint64_t icHits() const { return icHits_; }
    /** Indirect-exit resolutions that fell back to the full
     *  address-to-index lookup (and refilled the cache). */
    std::uint64_t icMisses() const { return icMisses_; }

  private:
    template <bool Observed>
    void runLoop(ExecObserver* observer);

    /** Monomorphic inline cache: last resolved target of an indirect
     *  exit and its table index (kNoIdx = leaves text, also cached). */
    struct IC
    {
        Addr target = 0;
        std::uint32_t idx = kNoIdx;
        bool valid = false;
    };

    /** Owned copy when the engine stands alone; borrowed from the
     *  shared translation otherwise (no copy on the warm path). */
    std::optional<Program> ownedProg_;
    const Program* prog_ = nullptr;
    SimConfig cfg_;
    MemoryImage mem_;
    std::unique_ptr<Translation> ownedTrans_;
    const Translation* trans_ = nullptr;
    /** One per op that reads one, indexed by TOp::slot. */
    std::vector<IC> ic_;
    SimStats stats_;

    Addr pc_ = 0;
    Addr sp_ = 0;
    Word accum_ = 0;
    bool flag_ = false;
    bool halted_ = false;

    std::uint64_t icHits_ = 0;
    std::uint64_t icMisses_ = 0;

    /** Same poll cadence as CrispCpu's cycle loop. */
    static constexpr int kCancelCheckInterval = 4096;
    const std::atomic<bool>* cancel_ = nullptr;
};

} // namespace crisp

#endif // CRISP_SIM_FASTENGINE_HH
