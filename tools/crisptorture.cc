/**
 * @file
 * crisptorture — seeded random differential torture for the CRISP
 * pipeline, with fault injection and automatic test-case shrinking.
 *
 *   crisptorture [--seeds=N] [--seed0=K] [--configs=quick|full]
 *                [--faults [--fault-kind=NAME]] [--shrink-demo]
 *                [--max-steps=N] [--timeout-ms=N] [--jobs=N] [-v]
 *
 * Modes:
 *  - default: every seed's program runs in lockstep against the
 *    functional interpreter across a matrix of pipeline configurations
 *    (fold policies; --configs=full adds DIC sizes and memory
 *    latencies). Any divergence is shrunk to a minimal reproducer and
 *    printed with its listing. Each (seed, config) pair also runs the
 *    static analyzer as a pre-simulation oracle: the per-site fold /
 *    prediction / resolved-at-issue counts it predicts must match what
 *    the pipeline actually retires; a disagreement is a
 *    "static mismatch" verdict and is shrunk just like a divergence.
 *    The oracle also holds every retired branch's observed delay (and
 *    the run's branchDelayCycles total) inside the cost engine's
 *    static per-site bounds; an escape is a "cost bound violation"
 *    verdict, shrunk the same way. Exit 1 on any verdict.
 *  - --faults: every seed also runs under each fault injector. Benign
 *    hint faults (flip-predict-bit, unfold-pair, drop-fill) must leave
 *    the architectural event stream and final state bit-identical
 *    (only cycle counts may change). Metadata corruption
 *    (corrupt-next-pc, corrupt-alt-pc, corrupt-cc-bit) runs with the
 *    retire-time decode checker enabled and must either never take
 *    effect or be reported as a structured DIC-corruption diagnostic —
 *    never a hang or a wrong answer.
 *  - --shrink-demo: seeds an artificial implementation bug (arch-bug
 *    injector, checker off), finds a diverging seed, and shrinks it,
 *    demonstrating the reducer on a real architectural divergence.
 *  - --opt: optimizer differential. Every seed generates a CRISP-C
 *    program (masked-LCG reduction loop with a seed-drawn guard
 *    structure: provably never-taken, genuinely dynamic, or
 *    data-correlated), compiles it, runs the dataflow optimizer, and
 *    holds the *optimized* binary to the full battery: translation
 *    validation, cycle-pipeline and fast-engine lockstep per fold
 *    policy, and the static oracle. A sweep where no seed optimizes
 *    fails — the gate must actually exercise the passes.
 *  - --engine-diff: three-way engine differential. Every seed runs the
 *    threaded-code fast engine against the interpreter (the stronger
 *    functional contract: fault reasons, opcode histogram, branch
 *    counts) AND the cycle pipeline against the interpreter, per fold
 *    policy. Both legs passing pins all three engines to the same
 *    architectural behaviour (each leg checks the full final state
 *    against the shared reference). Failures are shrunk as usual. The
 *    sweep always uses the fold-policy matrix — timing knobs (DIC
 *    size, memory latency) are meaningless to the functional engine.
 *
 * Seeds are independent, so the sweeps fan out across a thread pool
 * (--jobs, default: hardware concurrency). Each worker owns its
 * program, simulator and shrinker; per-seed output is buffered and
 * emitted in seed order, so the report (and the exit verdict) is
 * byte-identical for any job count.
 *
 * --timeout-ms=N arms a wall-clock watchdog per (seed, config) run:
 * one shared scanner thread (util::Watchdog) fires the pipeline's
 * cooperative cancel flag, the run comes back as Divergence::kTimeout,
 * and the seed is reported with a distinct TIMEOUT verdict — shrunk
 * like any other failure, against a "still times out" predicate. A
 * wedged run is a verdict (exit 1), never a hung harness.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/opt.hh"
#include "analysis/oracle.hh"
#include "cc/compiler.hh"
#include "cli.hh"
#include "util/thread_pool.hh"
#include "util/watchdog.hh"
#include "verify/enginediff.hh"
#include "verify/faults.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"
#include "verify/shrink.hh"

namespace
{

using namespace crisp;
using namespace crisp::verify;

struct Options
{
    std::uint64_t seeds = 100;
    std::uint64_t seed0 = 1;
    bool full = false;
    bool faults = false;
    bool shrinkDemo = false;
    bool engineDiff = false;
    bool optMode = false;
    FaultKind onlyFault = FaultKind::kNone;
    std::uint64_t maxSteps = 1'000'000;
    std::uint64_t timeoutMs = 0; // 0: no wall-clock watchdog
    int jobs = util::ThreadPool::defaultThreads();
    bool verbose = false;
};

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
/** Flag ranges: a watchdog of at most a day, at most 256 threads. */
constexpr std::uint64_t kMaxTimeoutMs = 86'400'000;
constexpr int kMaxJobs = 256;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: crisptorture [--seeds=N] [--seed0=K]\n"
        "                    [--configs=quick|full]\n"
        "                    [--faults [--fault-kind=NAME]]\n"
        "                    [--shrink-demo] [--engine-diff] [--opt]\n"
        "                    [--max-steps=N]\n"
        "                    [--timeout-ms=N] [--jobs=N] [-v]\n"
        "fault kinds: flip-predict-bit unfold-pair drop-fill\n"
        "             corrupt-next-pc corrupt-alt-pc corrupt-cc-bit\n");
    return 2;
}

/** The lockstep configuration matrix. */
std::vector<SimConfig>
configMatrix(bool full)
{
    std::vector<SimConfig> out;
    for (FoldPolicy fp :
         {FoldPolicy::kNone, FoldPolicy::kCrisp, FoldPolicy::kAll}) {
        if (!full) {
            SimConfig c;
            c.foldPolicy = fp;
            out.push_back(c);
            continue;
        }
        for (int dic : {8, 32}) {
            for (int lat : {1, 5}) {
                SimConfig c;
                c.foldPolicy = fp;
                c.dicEntries = dic;
                c.memLatency = lat;
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
divergenceText(std::uint64_t seed, const SimConfig& cfg,
               const LockstepReport& rep, const GenProgram& shrunk,
               int shrink_tests)
{
    char head[128];
    std::snprintf(head, sizeof(head),
                  "=== DIVERGENCE seed=%llu fold=%d dic=%d "
                  "mem-latency=%d ===\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<int>(cfg.foldPolicy), cfg.dicEntries,
                  cfg.memLatency);
    char mid[96];
    std::snprintf(mid, sizeof(mid),
                  "--- shrunk to %d instructions (%d shrink tests) "
                  "---\n",
                  shrunk.instructionCount(), shrink_tests);
    return std::string(head) + rep.toString() + "\n" + mid +
           shrunk.listing();
}

/**
 * Lockstep one generated program under one config (+ maybe faults).
 * When the caller carries a --timeout-ms budget, a watchdog timer is
 * armed for just this run and its cancel flag handed to the pipeline;
 * a fire surfaces as Divergence::kTimeout in the report.
 */
LockstepReport
runOne(const GenProgram& gp, const SimConfig& cfg,
       const FaultConfig* fault, const Options& opt,
       util::Watchdog* wd)
{
    LockstepOptions lo;
    lo.cfg = cfg;
    lo.maxSteps = opt.maxSteps;
    std::shared_ptr<util::Watchdog::Timer> timer;
    if (wd != nullptr && opt.timeoutMs > 0) {
        timer = wd->arm(std::chrono::milliseconds(opt.timeoutMs));
        lo.cancel = &timer->fired;
    }
    FaultInjector inj(fault != nullptr ? *fault : FaultConfig{});
    if (fault != nullptr)
        lo.hooks = &inj;
    const LockstepReport rep = runLockstep(gp.link(), lo);
    if (timer)
        timer->disarm();
    return rep;
}

/**
 * Run fn(seed_index) for every seed across the pool, tick the verbose
 * progress counter, then return. Results land in caller-owned per-seed
 * slots; nothing is printed from the workers except progress (stderr).
 */
void
sweepSeeds(const Options& opt,
           const std::function<void(std::size_t)>& fn)
{
    util::ThreadPool pool(opt.jobs);
    std::atomic<std::uint64_t> done{0};
    pool.parallelFor(
        static_cast<std::size_t>(opt.seeds), [&](std::size_t i) {
            fn(i);
            const std::uint64_t n =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (opt.verbose && n % 50 == 0) {
                std::fprintf(stderr, "crisptorture: %llu seeds done\n",
                             static_cast<unsigned long long>(n));
            }
        });
}

/** Plain differential sweep. @return divergences + static mismatches. */
int
plainSweep(const Options& opt)
{
    const auto cfgs = configMatrix(opt.full);
    struct SeedOut
    {
        int bad = 0;
        int staticBad = 0;
        int costBad = 0;
        int targetBad = 0;
        int timedOut = 0;
        std::string text;
    };
    std::vector<SeedOut> results(static_cast<std::size_t>(opt.seeds));
    util::Watchdog wd;

    sweepSeeds(opt, [&](std::size_t i) {
        const std::uint64_t s = opt.seed0 + i;
        const GenProgram gp = generate(s);
        const Program prog = gp.link();
        for (const SimConfig& cfg : cfgs) {
            const LockstepReport rep =
                runOne(gp, cfg, nullptr, opt, &wd);
            if (rep.kind == Divergence::kTimeout) {
                // The watchdog cancelled the run: a distinct verdict
                // (the pipeline wedged, or the budget is too tight),
                // shrunk against a "still times out" predicate. The
                // oracle is skipped for this config — it re-runs the
                // same pipeline and would wedge the same way.
                ++results[i].timedOut;
                const auto still_times_out =
                    [&](const GenProgram& cand) {
                        return runOne(cand, cfg, nullptr, opt, &wd)
                                   .kind == Divergence::kTimeout;
                    };
                const ShrinkResult sh =
                    shrinkProgram(gp, still_times_out);
                char head[128];
                std::snprintf(
                    head, sizeof(head),
                    "=== TIMEOUT seed=%llu fold=%d dic=%d "
                    "mem-latency=%d budget=%llums ===\n",
                    static_cast<unsigned long long>(s),
                    static_cast<int>(cfg.foldPolicy), cfg.dicEntries,
                    cfg.memLatency,
                    static_cast<unsigned long long>(opt.timeoutMs));
                char mid[96];
                std::snprintf(mid, sizeof(mid),
                              "--- shrunk to %d instructions (%d "
                              "shrink tests) ---\n",
                              sh.program.instructionCount(), sh.tests);
                results[i].text += std::string(head) + rep.toString() +
                                   "\n" + mid + sh.program.listing();
                continue;
            }
            if (!rep.ok()) {
                ++results[i].bad;
                const auto still_fails = [&](const GenProgram& cand) {
                    return !runOne(cand, cfg, nullptr, opt, &wd).ok();
                };
                const ShrinkResult sh = shrinkProgram(gp, still_fails);
                results[i].text +=
                    divergenceText(s, cfg, rep, sh.program, sh.tests);
            }

            // Static-analysis oracle: what the analyzer proves about
            // fold classes, prediction bits, resolved-at-issue
            // guarantees and per-site delay bounds must agree with
            // what the pipeline retires.
            const analysis::OracleReport orep =
                analysis::runStaticOracle(prog, cfg);
            if (orep.ok())
                continue;
            // A run can trip several verdicts; the structural
            // mismatch dominates the label, then cost, then target
            // sets — the counters track each kind regardless.
            const bool structural = !orep.mismatches.empty();
            const bool costly = !orep.costViolations.empty();
            if (structural)
                ++results[i].staticBad;
            if (costly)
                ++results[i].costBad;
            if (!orep.targetViolations.empty())
                ++results[i].targetBad;
            const auto still_fails_oracle =
                [&](const GenProgram& cand) {
                    const analysis::OracleReport rr =
                        analysis::runStaticOracle(cand.link(), cfg);
                    if (structural)
                        return !rr.mismatches.empty();
                    if (costly)
                        return !rr.costViolations.empty();
                    return !rr.targetViolations.empty();
                };
            const ShrinkResult sh =
                shrinkProgram(gp, still_fails_oracle);
            char head[128];
            std::snprintf(head, sizeof(head),
                          "=== %s seed=%llu fold=%d "
                          "dic=%d mem-latency=%d ===\n",
                          structural ? "STATIC MISMATCH"
                          : costly   ? "COST BOUND VIOLATION"
                                     : "TARGET SET VIOLATION",
                          static_cast<unsigned long long>(s),
                          static_cast<int>(cfg.foldPolicy),
                          cfg.dicEntries, cfg.memLatency);
            char mid[96];
            std::snprintf(mid, sizeof(mid),
                          "--- shrunk to %d instructions (%d shrink "
                          "tests) ---\n",
                          sh.program.instructionCount(), sh.tests);
            results[i].text += std::string(head) + orep.toString() +
                               mid + sh.program.listing();
        }
    });

    int bad = 0;
    int static_bad = 0;
    int cost_bad = 0;
    int target_bad = 0;
    int timed_out = 0;
    for (const SeedOut& r : results) {
        std::fputs(r.text.c_str(), stdout);
        bad += r.bad;
        static_bad += r.staticBad;
        cost_bad += r.costBad;
        target_bad += r.targetBad;
        timed_out += r.timedOut;
    }
    std::printf("torture: %llu seeds x %zu configs, %d divergences, "
                "%d static mismatches, %d cost-bound violations, "
                "%d target-set violations, %d timeouts\n",
                static_cast<unsigned long long>(opt.seeds),
                cfgs.size(), bad, static_bad, cost_bad, target_bad,
                timed_out);
    return bad + static_bad + cost_bad + target_bad + timed_out;
}

/**
 * One fast-engine-vs-interpreter leg, with the same per-run watchdog
 * arming as runOne. The cooperative cancel flag is polled by the fast
 * engine on superblock boundaries.
 */
LockstepReport
runFastOne(const GenProgram& gp, const SimConfig& cfg,
           const Options& opt, util::Watchdog* wd)
{
    LockstepOptions lo;
    lo.cfg = cfg;
    lo.maxSteps = opt.maxSteps;
    std::shared_ptr<util::Watchdog::Timer> timer;
    if (wd != nullptr && opt.timeoutMs > 0) {
        timer = wd->arm(std::chrono::milliseconds(opt.timeoutMs));
        lo.cancel = &timer->fired;
    }
    const LockstepReport rep = runFastLockstep(gp.link(), lo);
    if (timer)
        timer->disarm();
    return rep;
}

/**
 * Three-way engine differential (--engine-diff): fast-vs-interp and
 * cycle-vs-interp per seed x fold policy. Each leg pins the complete
 * final architectural state against the shared interpreter reference,
 * so two passing legs transitively pin fast == cycle as well.
 * @return total divergences + timeouts.
 */
int
engineSweep(const Options& opt)
{
    const auto cfgs = configMatrix(false); // fold policies only
    struct SeedOut
    {
        int bad = 0;
        int timedOut = 0;
        std::string text;
    };
    std::vector<SeedOut> results(static_cast<std::size_t>(opt.seeds));
    util::Watchdog wd;

    sweepSeeds(opt, [&](std::size_t i) {
        const std::uint64_t s = opt.seed0 + i;
        const GenProgram gp = generate(s);
        for (const SimConfig& cfg : cfgs) {
            for (const bool fast : {true, false}) {
                const char* const leg = fast ? "fast" : "cycle";
                const auto run = [&](const GenProgram& cand) {
                    return fast ? runFastOne(cand, cfg, opt, &wd)
                                : runOne(cand, cfg, nullptr, opt, &wd);
                };
                const LockstepReport rep = run(gp);
                if (rep.kind == Divergence::kTimeout) {
                    ++results[i].timedOut;
                    const auto still_times_out =
                        [&](const GenProgram& cand) {
                            return run(cand).kind ==
                                   Divergence::kTimeout;
                        };
                    const ShrinkResult sh =
                        shrinkProgram(gp, still_times_out);
                    char head[128];
                    std::snprintf(
                        head, sizeof(head),
                        "=== ENGINE TIMEOUT seed=%llu engine=%s "
                        "fold=%d budget=%llums ===\n",
                        static_cast<unsigned long long>(s), leg,
                        static_cast<int>(cfg.foldPolicy),
                        static_cast<unsigned long long>(opt.timeoutMs));
                    char mid[96];
                    std::snprintf(mid, sizeof(mid),
                                  "--- shrunk to %d instructions (%d "
                                  "shrink tests) ---\n",
                                  sh.program.instructionCount(),
                                  sh.tests);
                    results[i].text += std::string(head) +
                                       rep.toString() + "\n" + mid +
                                       sh.program.listing();
                    continue;
                }
                if (rep.ok())
                    continue;
                ++results[i].bad;
                const auto still_fails = [&](const GenProgram& cand) {
                    return !run(cand).ok();
                };
                const ShrinkResult sh = shrinkProgram(gp, still_fails);
                char head[128];
                std::snprintf(head, sizeof(head),
                              "=== ENGINE DIVERGENCE seed=%llu "
                              "engine=%s fold=%d ===\n",
                              static_cast<unsigned long long>(s), leg,
                              static_cast<int>(cfg.foldPolicy));
                char mid[96];
                std::snprintf(mid, sizeof(mid),
                              "--- shrunk to %d instructions (%d "
                              "shrink tests) ---\n",
                              sh.program.instructionCount(), sh.tests);
                results[i].text += std::string(head) + rep.toString() +
                                   "\n" + mid + sh.program.listing();
            }
        }
    });

    int bad = 0;
    int timed_out = 0;
    for (const SeedOut& r : results) {
        std::fputs(r.text.c_str(), stdout);
        bad += r.bad;
        timed_out += r.timedOut;
    }
    std::printf("engine torture: %llu seeds x %zu configs x 3 engines, "
                "%d divergences, %d timeouts\n",
                static_cast<unsigned long long>(opt.seeds), cfgs.size(),
                bad, timed_out);
    return bad + timed_out;
}

/**
 * Seeded CRISP-C source for the optimizer sweep (--opt): a masked-LCG
 * reduction loop whose guard structure is drawn from the seed. Some
 * draws make the range guard provably never-taken (the dataflow
 * optimizer folds the branch, deletes the arm and the dead store),
 * others leave it genuinely dynamic or correlate it with a data bit,
 * so the sweep covers both "passes fire" and "passes must leave it
 * alone".
 */
std::string
optSource(std::uint64_t seed)
{
    std::uint64_t x = seed * 2654435761ull + 1;
    const auto draw = [&](int m) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<int>(x % static_cast<std::uint64_t>(m));
    };
    static const int kMasks[] = {31, 63, 127, 255, 1023};
    const int mask = kMasks[draw(5)];
    const bool never = draw(2) == 0;   // guard provably never taken?
    const int lim = never ? mask : mask / 2;
    const bool corr = draw(2) == 0;    // flag seeded from a data bit?
    static const char* kOps[] = {"+", "^", "|"};
    const char* op = kOps[draw(3)];
    const int n = 16 + draw(48);
    const int s0 = 1 + draw(100000);
    const int errinc = 1 + draw(9);
    const int deadmul = 3 + draw(5);

    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "int out, errs, seed;\n"
                  "int main()\n"
                  "{\n"
                  "    int i, v, f, n, lim, dead;\n"
                  "    seed = %d;\n"
                  "    out = 0;\n"
                  "    errs = 0;\n"
                  "    lim = %d;\n"
                  "    n = %d;\n"
                  "    for (i = 0; i < n; i++) {\n"
                  "        seed = seed * 1103515245 + 12345;\n"
                  "        v = (seed >> 16) & %d;\n"
                  "        f = %s;\n"
                  "        if (v > lim)\n"
                  "            f = 1;\n"
                  "        if (f)\n"
                  "            errs = errs + %d;\n"
                  "        dead = v * %d;\n"
                  "        out = out %s v;\n"
                  "    }\n"
                  "    return out & 65535;\n"
                  "}\n",
                  s0, lim, n, mask, corr ? "v & 1" : "0", errinc,
                  deadmul, op);
    return buf;
}

/**
 * Optimizer sweep (--opt): every seed's program is compiled, run
 * through the dataflow optimizer, and the *optimized* binary is held
 * to the full differential battery — translation-validator verdict,
 * cycle-pipeline lockstep and fast-engine lockstep per fold policy,
 * and the static oracle (fold/prediction/cost-bound agreement between
 * the analyzer and what the pipeline retires). C-level sources have no
 * instruction shrinker; failures print the optimized listing instead.
 * @return total failures.
 */
int
optSweep(const Options& opt)
{
    const auto cfgs = configMatrix(false); // fold policies only
    struct SeedOut
    {
        int bad = 0;
        int tvRejected = 0;
        int staticBad = 0;
        bool optimized = false;
        std::string text;
    };
    std::vector<SeedOut> results(static_cast<std::size_t>(opt.seeds));

    sweepSeeds(opt, [&](std::size_t i) {
        const std::uint64_t s = opt.seed0 + i;
        SeedOut& out = results[i];
        const std::string src = optSource(s);
        cc::CompileOptions copts;
        analysis::OptReport orep;
        try {
            const cc::CompileResult base = cc::compile(src, copts);
            orep = analysis::optimize(base, copts);
        } catch (const std::exception& e) {
            ++out.bad;
            out.text += "=== OPT COMPILE FAILURE seed=" +
                        std::to_string(s) + " ===\n" + e.what() + "\n" +
                        src;
            return;
        }
        out.optimized = orep.optimized;
        if (!orep.tv.ok) {
            // optimize() falls back to the baseline rather than ship a
            // rejected rewrite, so a rejection here means even the
            // baseline re-link failed its self-check: always a bug.
            ++out.tvRejected;
            out.text += "=== TV REJECTION seed=" + std::to_string(s) +
                        " ===\n";
            for (const std::string& p : orep.tv.problems)
                out.text += "  " + p + "\n";
            out.text += orep.result.listing;
        }
        const Program& prog = orep.result.program;
        for (const SimConfig& cfg : cfgs) {
            for (const bool fast : {true, false}) {
                LockstepOptions lo;
                lo.cfg = cfg;
                lo.maxSteps = opt.maxSteps;
                const LockstepReport rep =
                    fast ? runFastLockstep(prog, lo)
                         : runLockstep(prog, lo);
                if (rep.ok())
                    continue;
                ++out.bad;
                char head[128];
                std::snprintf(head, sizeof(head),
                              "=== OPT DIVERGENCE seed=%llu engine=%s "
                              "fold=%d ===\n",
                              static_cast<unsigned long long>(s),
                              fast ? "fast" : "cycle",
                              static_cast<int>(cfg.foldPolicy));
                out.text += std::string(head) + rep.toString() + "\n" +
                            orep.result.listing;
            }
            const analysis::OracleReport orc =
                analysis::runStaticOracle(prog, cfg);
            if (orc.ok())
                continue;
            ++out.staticBad;
            char head[128];
            std::snprintf(head, sizeof(head),
                          "=== OPT STATIC MISMATCH seed=%llu fold=%d "
                          "===\n",
                          static_cast<unsigned long long>(s),
                          static_cast<int>(cfg.foldPolicy));
            out.text += std::string(head) + orc.toString() +
                        orep.result.listing;
        }
    });

    int bad = 0;
    int tv_rejected = 0;
    int static_bad = 0;
    int optimized = 0;
    for (const SeedOut& r : results) {
        std::fputs(r.text.c_str(), stdout);
        bad += r.bad;
        tv_rejected += r.tvRejected;
        static_bad += r.staticBad;
        optimized += r.optimized ? 1 : 0;
    }
    std::printf("opt torture: %llu seeds x %zu configs x 2 engines, "
                "%d divergences, %d tv rejections, %d static "
                "mismatches, %d seeds optimized\n",
                static_cast<unsigned long long>(opt.seeds), cfgs.size(),
                bad, tv_rejected, static_bad, optimized);
    // A sweep where no seed optimized is not exercising the passes:
    // treat it as a harness failure so the CI gate stays meaningful.
    if (optimized == 0 && opt.seeds > 0) {
        std::printf("opt torture: FAILED, no seed triggered the "
                    "optimizer\n");
        return 1;
    }
    return bad + tv_rejected + static_bad;
}

/** Fault-injection sweep. @return number of property violations. */
int
faultSweep(const Options& opt)
{
    struct SeedOut
    {
        int bad = 0;
        std::uint64_t benignCycleDiffs = 0;
        std::uint64_t detections = 0;
        std::string text;
    };
    std::vector<SeedOut> results(static_cast<std::size_t>(opt.seeds));
    util::Watchdog wd;

    sweepSeeds(opt, [&](std::size_t i) {
        const std::uint64_t s = opt.seed0 + i;
        SeedOut& out = results[i];
        const GenProgram gp = generate(s);
        SimConfig cfg; // defaults: the CRISP configuration
        const LockstepReport base =
            runOne(gp, cfg, nullptr, opt, &wd);
        if (!base.ok()) {
            char head[96];
            std::snprintf(head, sizeof(head),
                          "seed %llu diverges with no fault "
                          "injected:\n",
                          static_cast<unsigned long long>(s));
            out.text += std::string(head) + base.toString() + "\n";
            ++out.bad;
            return;
        }
        for (FaultKind k : kInjectableFaults) {
            if (opt.onlyFault != FaultKind::kNone && k != opt.onlyFault)
                continue;
            FaultConfig fc;
            fc.kind = k;
            fc.seed = s;
            SimConfig fcfg = cfg;
            // The checker is the detection mechanism for metadata
            // corruption; it must also stay silent on benign hints.
            fcfg.checkDecode = true;
            const LockstepReport rep =
                runOne(gp, fcfg, &fc, opt, &wd);
            bool ok;
            if (faultIsBenignHint(k)) {
                // Hints: bit-identical architecture, timing may move.
                ok = rep.ok();
                if (ok && rep.sim.cycles != base.sim.cycles)
                    ++out.benignCycleDiffs;
            } else {
                // Metadata: either the fault never reached a retiring
                // entry, or it was detected as structured corruption.
                ok = rep.ok() ||
                     rep.kind == Divergence::kDicCorruptionDetected;
                if (rep.kind == Divergence::kDicCorruptionDetected)
                    ++out.detections;
            }
            if (!ok) {
                ++out.bad;
                char head[96];
                std::snprintf(
                    head, sizeof(head),
                    "=== FAULT PROPERTY VIOLATION seed=%llu "
                    "fault=%s ===\n",
                    static_cast<unsigned long long>(s),
                    std::string(faultKindName(k)).c_str());
                out.text += std::string(head) + rep.toString() + "\n";
            }
        }
    });

    int bad = 0;
    std::uint64_t benign_cycle_diffs = 0;
    std::uint64_t detections = 0;
    for (const SeedOut& r : results) {
        std::fputs(r.text.c_str(), stdout);
        bad += r.bad;
        benign_cycle_diffs += r.benignCycleDiffs;
        detections += r.detections;
    }
    std::printf("fault torture: %llu seeds, %d violations "
                "(%llu benign runs changed cycle counts, "
                "%llu corruptions detected)\n",
                static_cast<unsigned long long>(opt.seeds), bad,
                static_cast<unsigned long long>(benign_cycle_diffs),
                static_cast<unsigned long long>(detections));
    return bad;
}

/** Shrinker demo on a seeded architectural bug. @return 0 on success. */
int
shrinkDemo(const Options& opt)
{
    SimConfig cfg;
    cfg.checkDecode = false; // the bug must stay silent
    util::Watchdog wd;
    const auto fails = [&](const GenProgram& cand) {
        FaultConfig fc;
        fc.kind = FaultKind::kArchBug;
        fc.seed = cand.seed;
        fc.maxFires = 1;
        return !runOne(cand, cfg, &fc, opt, &wd).ok();
    };
    for (std::uint64_t s = opt.seed0; s < opt.seed0 + opt.seeds; ++s) {
        const GenProgram gp = generate(s);
        if (!fails(gp))
            continue;
        const ShrinkResult sh = shrinkProgram(gp, fails);
        const int before = gp.instructionCount();
        const int after = sh.program.instructionCount();
        std::printf("shrink demo: seed %llu, %d -> %d instructions "
                    "(%d tests)\n",
                    static_cast<unsigned long long>(s), before, after,
                    sh.tests);
        std::printf("%s", sh.program.listing().c_str());
        if (after > 20) {
            std::printf("shrink demo: FAILED, reproducer larger than "
                        "20 instructions\n");
            return 1;
        }
        std::printf("shrink demo: ok\n");
        return 0;
    }
    std::printf("shrink demo: no seed in [%llu, %llu) tripped the "
                "seeded bug\n",
                static_cast<unsigned long long>(opt.seed0),
                static_cast<unsigned long long>(opt.seed0 + opt.seeds));
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&](const char* key) { return cli::flag(a, key); };
        if (const char* v = val("--seeds=")) {
            if (!cli::parseInt(v, opt.seeds, 1, kMaxU64))
                return usage();
        } else if (const char* v2 = val("--seed0=")) {
            if (!cli::parseInt(v2, opt.seed0, 0, kMaxU64))
                return usage();
        } else if (const char* v3 = val("--configs=")) {
            const std::string c = v3;
            if (c == "quick")
                opt.full = false;
            else if (c == "full")
                opt.full = true;
            else
                return usage();
        } else if (a == "--faults") {
            opt.faults = true;
        } else if (const char* v4 = val("--fault-kind=")) {
            const auto k = crisp::verify::parseFaultKind(v4);
            if (!k)
                return usage();
            opt.onlyFault = *k;
            opt.faults = true;
        } else if (a == "--shrink-demo") {
            opt.shrinkDemo = true;
        } else if (a == "--engine-diff") {
            opt.engineDiff = true;
        } else if (a == "--opt") {
            opt.optMode = true;
        } else if (const char* v5 = val("--max-steps=")) {
            if (!cli::parseInt(v5, opt.maxSteps, 1, kMaxU64))
                return usage();
        } else if (const char* v7 = val("--timeout-ms=")) {
            if (!cli::parseInt(v7, opt.timeoutMs, 0, kMaxTimeoutMs))
                return usage();
        } else if (const char* v6 = val("--jobs=")) {
            if (!cli::parseInt(v6, opt.jobs, 1, kMaxJobs))
                return usage();
        } else if (a == "--jobs" && i + 1 < argc) {
            if (!cli::parseInt(argv[++i], opt.jobs, 1, kMaxJobs))
                return usage();
        } else if (a == "-v") {
            opt.verbose = true;
        } else {
            return usage();
        }
    }
    if (opt.seeds > kMaxU64 - opt.seed0)
        return usage(); // the seed range would wrap

    try {
        if (opt.shrinkDemo)
            return shrinkDemo(opt) == 0 ? 0 : 1;
        if (opt.engineDiff)
            return engineSweep(opt) == 0 ? 0 : 1;
        if (opt.optMode)
            return optSweep(opt) == 0 ? 0 : 1;
        const int bad =
            opt.faults ? faultSweep(opt) : plainSweep(opt);
        return bad == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crisptorture: %s\n", e.what());
        return 1;
    }
}
