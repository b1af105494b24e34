/**
 * @file
 * crisptorture — seeded random differential torture for the CRISP
 * pipeline, with fault injection and automatic test-case shrinking.
 *
 *   crisptorture [--seeds=N] [--seed0=K] [--configs=quick|full]
 *                [--faults [--fault-kind=NAME]] [--shrink-demo]
 *                [--engine-diff] [--opt]
 *                [--max-steps=N] [--timeout-ms=N] [--jobs=N] [-v]
 *
 * Every sweep runs a list of legs per seed. A leg is one run of the
 * seed's program: the cycle pipeline or the fast engine in lockstep
 * with the functional interpreter, or the static oracle; a cycle leg
 * may run under a fault injector. One checker runs, classifies,
 * shrinks and prints every leg: a failure prints "=== [MODE ]VERDICT
 * seed=S <leg> ===", the leg's report, then the program, shrunk to a
 * minimal reproducer of that verdict on that leg if generated, as its
 * optimized listing if an --opt source. Exit 1 on any verdict.
 *
 *  - default: per configuration (fold policies; --configs=full adds
 *    DIC sizes and memory latencies), a cycle leg and an oracle leg.
 *    The oracle holds the analyzer's fold / prediction / resolved-at-
 *    issue counts to what the pipeline retires (STATIC MISMATCH), each
 *    branch's delay to the cost engine's static bounds (COST BOUND
 *    VIOLATION), and indirect jumps to their proven target sets
 *    (TARGET SET VIOLATION).
 *  - --faults: a clean cycle leg, then one under each injector. Benign
 *    hint faults (flip-predict-bit, unfold-pair, drop-fill) may change
 *    only cycle counts. Metadata corruption (corrupt-next-pc,
 *    corrupt-alt-pc, corrupt-cc-bit) runs with the retire-time decode
 *    checker on and must never take effect or be reported as
 *    structured DIC corruption, never a hang or a wrong answer.
 *  - --engine-diff: a fast leg (fault reasons, opcode histogram and
 *    branch counts too) and a cycle leg per fold policy. Both check the
 *    full final state against one interpreter reference, so passing
 *    legs pin all three engines to one architectural behaviour.
 *  - --opt: every seed compiles a CRISP-C program (a masked-LCG loop
 *    whose guard is drawn provably never-taken, dynamic or
 *    data-correlated), optimizes it, checks the translation
 *    validator's verdict, then runs fast, cycle and oracle legs per
 *    fold policy over the optimized binary. A sweep where no seed
 *    optimizes fails: the gate must exercise the passes.
 *  - --shrink-demo: seeds an artificial implementation bug (arch-bug
 *    injector, checker off), finds a diverging seed and shrinks it.
 *
 * Seeds fan out across a thread pool (--jobs, default: hardware
 * concurrency); per-seed output is printed in seed order, so the
 * report and the exit status are the same for any job count.
 *
 * --timeout-ms=N arms a wall-clock watchdog on every lockstep leg in
 * every mode: one shared util::Watchdog thread fires the engine's
 * cooperative cancel flag, and the leg is a TIMEOUT. The oracle leg
 * runs under its lockstep leg's cycle budget (48 cycles per reference
 * instruction plus 50,000) and is skipped after that leg times out.
 */

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "analysis/opt.hh"
#include "analysis/oracle.hh"
#include "cc/compiler.hh"
#include "cli.hh"
#include "interp/interpreter.hh"
#include "util/thread_pool.hh"
#include "util/watchdog.hh"
#include "verify/enginediff.hh"
#include "verify/faults.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"
#include "verify/reference.hh"
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

/** What a leg runs its program on. */
enum class Engine : std::uint8_t { kCycle, kFast, kOracle };

/** One run of a seed's program; fault.kind is kNone when uninjected. */
struct Leg
{
    Engine engine = Engine::kCycle;
    SimConfig cfg;
    FaultConfig fault;
    /** The leg's name in a failure header, e.g. "engine=fast fold=1". */
    std::string tag;
};

/** What a leg can find, in the order a failure header prefers them. */
enum Verdict : int {
    kPass,
    kDivergence,
    kTimeout,
    kStaticMismatch,
    kCostBound,
    kTargetSet,
    kFaultViolation,
    kVerdicts,
};

constexpr const char* kVerdictName[kVerdicts] = {
    "PASS",
    "DIVERGENCE",
    "TIMEOUT",
    "STATIC MISMATCH",
    "COST BOUND VIOLATION",
    "TARGET SET VIOLATION",
    "FAULT PROPERTY VIOLATION",
};

/** One classified run of a leg. */
struct Outcome
{
    /** Bit v set: the run found verdict v. An oracle run can find
     *  several; the failure header names the first. */
    unsigned found = 0;
    LockstepReport rep; ///< lockstep legs only
    std::string text;   ///< the report under a failure header

    Verdict
    verdict() const
    {
        return found == 0 ? kPass
                          : static_cast<Verdict>(std::countr_zero(found));
    }
};

/**
 * Run @p leg over @p prog and classify it. A lockstep leg runs under
 * its own watchdog timer when --timeout-ms is set. The oracle leg runs
 * under the cycle budget runLockstep gives the program
 * (defaultCycleBudget), not SimConfig's 2·10⁹.
 */
Outcome
runLeg(const Leg& leg, const Program& prog, const Options& opt,
       util::Watchdog& wd)
{
    Outcome out;
    if (leg.engine == Engine::kOracle) {
        Interpreter ref(prog);
        try {
            ref.run(opt.maxSteps);
        } catch (const CrispError&) {
            // A faulting reference bounds the run by what it executed.
        }
        SimConfig cfg = leg.cfg;
        cfg.maxCycles = defaultCycleBudget(ref.result().instructions);
        const analysis::OracleReport r =
            analysis::runStaticOracle(prog, cfg);
        out.found = (r.mismatches.empty() ? 0 : 1u << kStaticMismatch) |
                    (r.costViolations.empty() ? 0 : 1u << kCostBound) |
                    (r.targetViolations.empty() ? 0 : 1u << kTargetSet);
        if (out.found != 0)
            out.text = r.toString();
        return out;
    }

    LockstepOptions lo;
    lo.cfg = leg.cfg;
    lo.maxSteps = opt.maxSteps;
    std::shared_ptr<util::Watchdog::Timer> timer;
    if (opt.timeoutMs > 0) {
        timer = wd.arm(std::chrono::milliseconds(opt.timeoutMs));
        lo.cancel = &timer->fired;
    }
    const bool injected = leg.fault.kind != FaultKind::kNone;
    FaultInjector inj(leg.fault);
    if (injected)
        lo.hooks = &inj;
    out.rep = leg.engine == Engine::kFast ? runFastLockstep(prog, lo)
                                          : runLockstep(prog, lo);
    if (timer)
        timer->disarm();

    // A hint fault must leave the architecture bit-identical; metadata
    // corruption may instead be caught by the retire-time checker.
    const Divergence k = out.rep.kind;
    const bool caught = injected && !faultIsBenignHint(leg.fault.kind) &&
                        k == Divergence::kDicCorruptionDetected;
    if (k == Divergence::kTimeout)
        out.found = 1u << kTimeout;
    else if (!out.rep.ok() && !caught)
        out.found = 1u << (injected ? kFaultViolation : kDivergence);
    if (out.found != 0)
        out.text = out.rep.toString() + "\n";
    return out;
}

/** What one seed's legs found, and the text they print. */
struct SeedResult
{
    /** Legs that found each verdict (found[kPass] stays 0). */
    int found[kVerdicts] = {};
    /** --opt: translation-validator rejections; seeds optimized. */
    int tvRejected = 0;
    int optimized = 0;
    /** --faults: benign runs that moved the cycle count; corruptions
     *  the checker caught. */
    std::uint64_t benignCycleDiffs = 0;
    std::uint64_t detections = 0;
    std::string text;

    int
    failures() const
    {
        return std::accumulate(found, found + kVerdicts, tvRejected);
    }
};

/** One seed's battery in progress, and the checker every leg runs in. */
struct SeedRun
{
    const Options& opt;
    util::Watchdog& wd;
    /** Names the sweep in failure headers: "", "ENGINE " or "OPT ". */
    const char* mode;
    std::uint64_t seed;
    SeedResult& out;
    /** The generated program; empty for a compiled --opt source, which
     *  prints @c listing instead of a shrunk one. */
    std::optional<GenProgram> gen{};
    Program prog{};
    std::string listing{};

    /** Run @p leg, count what it found and print any failure. */
    Outcome
    check(const Leg& leg)
    {
        const Outcome o = runLeg(leg, prog, opt, wd);
        for (int k = kDivergence; k < kVerdicts; ++k)
            out.found[k] += (o.found >> k) & 1u;
        const Verdict v = o.verdict();
        if (v == kPass)
            return o;
        out.text += "=== " + std::string(mode) + kVerdictName[v] +
                    " seed=" + std::to_string(seed) + " " + leg.tag;
        if (v == kTimeout)
            out.text += " budget=" + std::to_string(opt.timeoutMs) + "ms";
        out.text += " ===\n" + o.text;
        if (!gen) {
            out.text += listing;
            return o;
        }
        const ShrinkResult sh =
            shrinkProgram(*gen, [&](const GenProgram& cand) {
                const Outcome c = runLeg(leg, cand.link(), opt, wd);
                return ((c.found >> v) & 1u) != 0;
            });
        out.text += "--- shrunk to " +
                    std::to_string(sh.program.instructionCount()) +
                    " instructions (" + std::to_string(sh.tests) +
                    " shrink tests) ---\n" + sh.program.listing();
        return o;
    }
};

/**
 * Run @p battery for every seed across the pool, the seed's generated
 * program loaded unless @p compiled, then print each seed's text in
 * seed order and return the counts summed over all seeds. Workers
 * print nothing but the verbose progress counter (stderr).
 */
SeedResult
sweepSeeds(const Options& opt, const char* mode, bool compiled,
           const std::function<void(SeedRun&)>& battery)
{
    std::vector<SeedResult> results(static_cast<std::size_t>(opt.seeds));
    util::Watchdog wd;
    util::ThreadPool pool(opt.jobs);
    std::atomic<std::uint64_t> done{0};
    pool.parallelFor(
        static_cast<std::size_t>(opt.seeds), [&](std::size_t i) {
            SeedRun run{opt, wd, mode, opt.seed0 + i, results[i]};
            if (!compiled) {
                run.gen = generate(run.seed);
                run.prog = run.gen->link();
            }
            battery(run);
            const std::uint64_t n =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (opt.verbose && n % 50 == 0) {
                std::fprintf(stderr, "crisptorture: %llu seeds done\n",
                             static_cast<unsigned long long>(n));
            }
        });

    SeedResult sum;
    for (const SeedResult& r : results) {
        std::fputs(r.text.c_str(), stdout);
        for (int v = 0; v < kVerdicts; ++v)
            sum.found[v] += r.found[v];
        sum.tvRejected += r.tvRejected;
        sum.optimized += r.optimized;
        sum.benignCycleDiffs += r.benignCycleDiffs;
        sum.detections += r.detections;
    }
    return sum;
}

std::string
foldTag(const SimConfig& cfg)
{
    return "fold=" + std::to_string(static_cast<int>(cfg.foldPolicy));
}

/** A fast or cycle lockstep leg, named by engine and fold policy. */
Leg
engineLeg(Engine e, const SimConfig& cfg)
{
    const char* name = e == Engine::kFast ? "fast" : "cycle";
    return {e, cfg, {}, std::string("engine=") + name + " " + foldTag(cfg)};
}

/** Plain differential sweep. @return the number of failing legs. */
int
plainSweep(const Options& opt)
{
    const auto cfgs = configMatrix(opt.full);
    const SeedResult sum = sweepSeeds(opt, "", false, [&](SeedRun& run) {
        for (const SimConfig& cfg : cfgs) {
            const std::string tag =
                foldTag(cfg) + " dic=" + std::to_string(cfg.dicEntries) +
                " mem-latency=" + std::to_string(cfg.memLatency);
            // Skip the oracle after a timeout: it re-runs this pipeline.
            if (run.check({Engine::kCycle, cfg, {}, tag}).verdict() !=
                kTimeout)
                run.check({Engine::kOracle, cfg, {}, tag});
        }
    });
    std::printf("torture: %llu seeds x %zu configs, %d divergences, "
                "%d static mismatches, %d cost-bound violations, "
                "%d target-set violations, %d timeouts\n",
                static_cast<unsigned long long>(opt.seeds), cfgs.size(),
                sum.found[kDivergence], sum.found[kStaticMismatch],
                sum.found[kCostBound], sum.found[kTargetSet],
                sum.found[kTimeout]);
    return sum.failures();
}

/**
 * Three-way engine differential (--engine-diff): a fast and a cycle
 * leg per seed x fold policy. @return the number of failing legs.
 */
int
engineSweep(const Options& opt)
{
    const auto cfgs = configMatrix(false); // fold policies only
    const SeedResult sum =
        sweepSeeds(opt, "ENGINE ", false, [&](SeedRun& run) {
            for (const SimConfig& cfg : cfgs) {
                run.check(engineLeg(Engine::kFast, cfg));
                run.check(engineLeg(Engine::kCycle, cfg));
            }
        });
    std::printf("engine torture: %llu seeds x %zu configs x 3 engines, "
                "%d divergences, %d timeouts\n",
                static_cast<unsigned long long>(opt.seeds), cfgs.size(),
                sum.found[kDivergence], sum.found[kTimeout]);
    return sum.failures();
}

/**
 * Seeded CRISP-C source for --opt. Some draws make the range guard
 * provably never-taken (the optimizer folds the branch, deletes the arm
 * and the dead store), others leave it dynamic or correlate it with a
 * data bit: both "passes fire" and "passes must leave it alone".
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
 * Optimizer sweep (--opt). In its summary a timeout counts as a
 * divergence and every oracle verdict as a static mismatch.
 * @return the number of failures.
 */
int
optSweep(const Options& opt)
{
    const auto cfgs = configMatrix(false); // fold policies only
    const SeedResult sum = sweepSeeds(opt, "OPT ", true, [&](SeedRun& run) {
        SeedResult& out = run.out;
        const std::string s = std::to_string(run.seed);
        const std::string src = optSource(run.seed);
        cc::CompileOptions copts;
        analysis::OptReport orep;
        try {
            const cc::CompileResult base = cc::compile(src, copts);
            orep = analysis::optimize(base, copts);
        } catch (const std::exception& e) {
            ++out.found[kDivergence];
            out.text += "=== OPT COMPILE FAILURE seed=" + s + " ===\n" +
                        e.what() + "\n" + src;
            return;
        }
        out.optimized = orep.optimized ? 1 : 0;
        if (!orep.tv.ok) {
            // optimize() falls back to the baseline rather than ship a
            // rejected rewrite, so a rejection here means even the
            // baseline re-link failed its self-check: always a bug.
            ++out.tvRejected;
            out.text += "=== TV REJECTION seed=" + s + " ===\n";
            for (const std::string& p : orep.tv.problems)
                out.text += "  " + p + "\n";
            out.text += orep.result.listing;
        }
        run.prog = orep.result.program;
        run.listing = orep.result.listing;
        for (const SimConfig& cfg : cfgs) {
            run.check(engineLeg(Engine::kFast, cfg));
            // Skip the oracle after a timeout: it re-runs this pipeline.
            if (run.check(engineLeg(Engine::kCycle, cfg)).verdict() !=
                kTimeout)
                run.check({Engine::kOracle, cfg, {}, foldTag(cfg)});
        }
    });
    std::printf("opt torture: %llu seeds x %zu configs x 2 engines, "
                "%d divergences, %d tv rejections, %d static "
                "mismatches, %d seeds optimized\n",
                static_cast<unsigned long long>(opt.seeds), cfgs.size(),
                sum.found[kDivergence] + sum.found[kTimeout],
                sum.tvRejected,
                sum.found[kStaticMismatch] + sum.found[kCostBound] +
                    sum.found[kTargetSet],
                sum.optimized);
    // A sweep where no seed optimized is not exercising the passes:
    // treat it as a harness failure so the CI gate stays meaningful.
    if (sum.optimized == 0) {
        std::printf("opt torture: FAILED, no seed triggered the "
                    "optimizer\n");
        return 1;
    }
    return sum.failures();
}

/**
 * Fault-injection sweep: a clean cycle leg, then one per injector.
 * In the summary every failing leg counts as a violation.
 * @return the number of failing legs.
 */
int
faultSweep(const Options& opt)
{
    const SeedResult sum = sweepSeeds(opt, "", false, [&](SeedRun& run) {
        const SimConfig cfg; // defaults: the CRISP configuration
        const Outcome base =
            run.check({Engine::kCycle, cfg, {}, "fault=none"});
        if (base.verdict() != kPass)
            return;
        for (FaultKind k : kInjectableFaults) {
            if (opt.onlyFault != FaultKind::kNone && k != opt.onlyFault)
                continue;
            Leg leg{Engine::kCycle, cfg, {},
                    "fault=" + std::string(faultKindName(k))};
            // The checker is the detection mechanism for metadata
            // corruption; it must also stay silent on benign hints.
            leg.cfg.checkDecode = true;
            leg.fault.kind = k;
            leg.fault.seed = run.seed;
            const Outcome o = run.check(leg);
            if (o.verdict() != kPass)
                continue;
            if (faultIsBenignHint(k) &&
                o.rep.sim.cycles != base.rep.sim.cycles)
                ++run.out.benignCycleDiffs;
            if (o.rep.kind == Divergence::kDicCorruptionDetected)
                ++run.out.detections;
        }
    });
    std::printf("fault torture: %llu seeds, %d violations "
                "(%llu benign runs changed cycle counts, "
                "%llu corruptions detected)\n",
                static_cast<unsigned long long>(opt.seeds),
                sum.failures(),
                static_cast<unsigned long long>(sum.benignCycleDiffs),
                static_cast<unsigned long long>(sum.detections));
    return sum.failures();
}

/** Shrinker demo on a seeded architectural bug. @return 0 on success. */
int
shrinkDemo(const Options& opt)
{
    util::Watchdog wd;
    Leg leg;
    leg.cfg.checkDecode = false; // the bug must stay silent
    leg.fault.kind = FaultKind::kArchBug;
    leg.fault.maxFires = 1;
    const auto fails = [&](const GenProgram& cand) {
        return runLeg(leg, cand.link(), opt, wd).verdict() != kPass;
    };
    for (std::uint64_t s = opt.seed0; s < opt.seed0 + opt.seeds; ++s) {
        const GenProgram gp = generate(s);
        leg.fault.seed = s;
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
        const int bad = opt.shrinkDemo   ? shrinkDemo(opt)
                        : opt.engineDiff ? engineSweep(opt)
                        : opt.optMode    ? optSweep(opt)
                        : opt.faults     ? faultSweep(opt)
                                         : plainSweep(opt);
        return bad == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crisptorture: %s\n", e.what());
        return 1;
    }
}
