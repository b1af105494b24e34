/**
 * @file
 * bench_perf — host-performance harness for the cycle-level simulator.
 *
 *   bench_perf [--smoke] [--out=FILE | --out FILE] [--jobs=N]
 *              [--reps=N] [--check-floor=FILE]
 *
 * Times five workloads with std::chrono::steady_clock, each under two
 * execution paths — the cycle simulator (`fast`: decode results from
 * the predecode tables) and the direct-threaded functional FastEngine.
 * Every replay runs on a freshly constructed machine, the way every
 * caller runs one (SimService::runJob, the lockstep runners, the
 * static oracle): a unit's replays share one PredecodeCache and, for
 * the FastEngine, one warm Translation, exactly as SimService::runJob
 * borrows both from its program registry.
 *
 *  - torture_replay: replays the torture generator's programs (the same
 *    seeds the differential suite sweeps) on the default CRISP
 *    configuration, each several times over one shared PredecodeCache,
 *    so runs after the first do no decode work at all.
 *    torture_replay_checked adds the retire-time decode checker, the
 *    worst case for decode overhead.
 *  - table4_fig3: the paper's Figure 3 program compiled for all five
 *    Table 4 cases.
 *  - dic_thrash: a loop whose body far exceeds the 32-entry DIC, so the
 *    PDU re-decodes the working set every iteration.
 *  - chain_dense: straight-line accumulator blocks stitched together by
 *    unconditional jumps — no memory traffic and no conditional exits,
 *    so the fast engine alternates one straight-line run with one jump
 *    handler.
 *
 * Three times are reported per measurement: hotSeconds (the runs
 * only — the hot loop), setupSeconds (machine construction, paid once
 * per replay: the memory image load, and for the cycle simulator its
 * DIC, predictor and PDU) and endToEndSeconds (their sum). The shared
 * PredecodeCache and, on the fastengine path, the shared Translation
 * are prepared untimed, the way crispd's registry hands registry-warm
 * tables to every job. Rates are simulated instructions
 * (architectural) and simulated cycles per host second, best of
 * --reps repetitions.
 *
 * Program preparation (generation, linking, compilation) fans out over
 * a thread pool (--jobs) and is never timed. The measured runs are
 * strictly sequential so one run never steals cycles from another.
 *
 * Output: a single JSON object (schema "crisp-bench-perf/6", described
 * in docs/PERFORMANCE.md) written to --out (default BENCH_PERF.json)
 * and validated by re-parsing before exit. --smoke shrinks every
 * workload to fractions of a second and is wired into ctest.
 *
 * --check-floor=FILE compares this run against the committed
 * BENCH_PERF.json instead of writing one. Absolute instr/s depends on
 * the host, so the check is ratio-normalized: for every workload both
 * the measured fastengine-over-cycle hot-loop speedup and the
 * end-to-end speedup (which also covers machine construction) must be
 * at least 0.6x the committed values — a >40% relative
 * regression of the threaded engine fails the build on any machine.
 * (The factor is sized to the observed run-to-run ratio jitter of a
 * noisy shared-host vCPU, roughly ±30% around the median; a broken
 * warm path or a lost dispatch optimization costs far more than 40%.)
 * Wired into ctest except under sanitizers, whose overhead distorts
 * the ratio.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cli.hh"
#include "common.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"
#include "sim/predecode.hh"
#include "sim/translate.hh"
#include "util/json.hh"
#include "util/thread_pool.hh"
#include "verify/generator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace crisp;
using Clock = std::chrono::steady_clock;

/** Flag ranges: at most 256 preparation threads and 1000 repetitions. */
constexpr int kMaxJobs = 256;
constexpr int kMaxReps = 1000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One program + configuration to simulate. */
struct Unit
{
    Program prog;
    SimConfig cfg;
};

struct Measure
{
    double hotSeconds = 0.0;
    double setupSeconds = 0.0;
    double endToEndSeconds = 0.0;
    std::uint64_t simInstructions = 0;
    std::uint64_t simCycles = 0;
};

/**
 * Run every unit @p replays times, each replay on a freshly constructed
 * machine, timing construction and run separately. A unit's replays
 * share one PredecodeCache and, on the FastEngine, one warm
 * Translation, so replays after the first skip decode work entirely.
 * The stats must describe a clean halt: a fault or timeout means the
 * harness is measuring a broken simulation and must say so.
 */
template <class Machine>
Measure
runOnce(const std::vector<Unit>& units, int replays)
{
    constexpr bool engine = std::is_same_v<Machine, FastEngine>;
    Measure m;
    for (const Unit& u : units) {
        PredecodeCache shared(u.prog);
        std::unique_ptr<Translation> warm;
        if constexpr (engine) {
            // Built once per program x policy and shared by every run,
            // prepared untimed like the shared PredecodeCache above.
            warm = std::make_unique<Translation>(
                u.prog, u.cfg.foldPolicy, &shared);
        }
        for (int r = 0; r < replays; ++r) {
            std::optional<Machine> cpu;
            const auto t0 = Clock::now();
            if constexpr (engine)
                cpu.emplace(u.prog, u.cfg, &shared, warm.get());
            else
                cpu.emplace(u.prog, u.cfg, &shared);
            const double ctor = secondsSince(t0);
            const auto t1 = Clock::now();
            const SimStats& s = cpu->run();
            const double hot = secondsSince(t1);
            m.setupSeconds += ctor;
            m.hotSeconds += hot;
            m.endToEndSeconds += ctor + hot;
            m.simInstructions += s.apparent;
            m.simCycles += s.cycles;
            if (s.faulted)
                throw CrispError("bench_perf: unit faulted: " +
                                 s.faultReason);
            if (!s.halted)
                throw CrispError("bench_perf: unit hit the cycle limit");
        }
    }
    return m;
}

/** Fold repetition @p m of a measurement into best-of @p best. */
void
keepBest(Measure& best, const Measure& m, int rep)
{
    if (rep == 0 || m.hotSeconds < best.hotSeconds)
        best = m;
}

/**
 * Straight-line accumulator blocks chained by unconditional one-parcel
 * jumps: @p blocks blocks of @p ops_per_block accumulator adds, each
 * ending in a jmp to the block that follows it. No memory traffic, no
 * conditional exits: the fast engine retires each block as one
 * straight-line run and each jump in its own handler.
 */
Program
chainDenseProgram(int blocks, int ops_per_block)
{
    Program p;
    p.append(Instruction::mov(Operand::accum(), Operand::imm(0)));
    for (int b = 0; b < blocks; ++b) {
        for (int k = 0; k < ops_per_block; ++k) {
            const std::int32_t v = (b + k) % 7 + 1;
            p.append(Instruction::alu(Opcode::kAdd, Operand::accum(),
                                      Operand::imm(v)));
        }
        // Jump to the immediately following block: architecturally a
        // no-op, but a real unconditional control transfer.
        p.append(Instruction::branchRel(Opcode::kJmp, 2));
    }
    p.append(Instruction::halt());
    p.entry = p.textBase;
    return p;
}

/** Loop body of ~@p stmts distinct instructions: far over the DIC. */
std::string
dicThrashSource(int stmts, int iters)
{
    std::ostringstream os;
    os << "int g;\nint main()\n{\n    int i;\n    g = 0;\n"
       << "    for (i = 0; i < " << iters << "; i++) {\n";
    for (int k = 0; k < stmts; ++k)
        os << "        g = g + " << (k + 1) << ";\n";
    os << "    }\n    return g;\n}\n";
    return os.str();
}

void
jsonMeasure(std::ostringstream& os, const char* key, const Measure& m)
{
    const double hot = m.hotSeconds > 0 ? m.hotSeconds : 1e-12;
    const double e2e =
        m.endToEndSeconds > 0 ? m.endToEndSeconds : 1e-12;
    os << "\"" << key << "\":{"
       << "\"hotSeconds\":" << m.hotSeconds
       << ",\"setupSeconds\":" << m.setupSeconds
       << ",\"endToEndSeconds\":" << m.endToEndSeconds
       << ",\"simInstructions\":" << m.simInstructions
       << ",\"simCycles\":" << m.simCycles
       << ",\"instrPerHostSec\":"
       << static_cast<double>(m.simInstructions) / hot
       << ",\"cyclesPerHostSec\":"
       << static_cast<double>(m.simCycles) / hot
       << ",\"instrPerHostSecEndToEnd\":"
       << static_cast<double>(m.simInstructions) / e2e << "}";
}

/**
 * The committed ratio named @p ratio_key for @p workload, pulled from
 * the baseline JSON by string scan (the value is written by this same
 * program, so the shape is known). Throws when the baseline predates
 * the current rows — the fix is regenerating BENCH_PERF.json, and the
 * message says so.
 */
double
committedRatio(const std::string& json, const std::string& workload,
               const std::string& ratio_key)
{
    const std::string tag = "\"name\":\"" + workload + "\"";
    const std::size_t at = json.find(tag);
    if (at == std::string::npos)
        throw CrispError("bench_perf: baseline lacks workload \"" +
                         workload + "\"");
    const std::string key = "\"" + ratio_key + "\":";
    const std::size_t k = json.find(key, at);
    const std::size_t next = json.find("\"name\":", at + tag.size());
    if (k == std::string::npos ||
        (next != std::string::npos && k > next)) {
        throw CrispError(
            "bench_perf: baseline has no " + ratio_key +
            " for \"" + workload +
            "\" (schema crisp-bench-perf/6 required; regenerate "
            "BENCH_PERF.json with bench_perf --out)");
    }
    return std::strtod(json.c_str() + k + key.size(), nullptr);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_perf [--smoke] [--out=FILE] [--jobs=N] "
                 "[--reps=N] [--check-floor=FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_PERF.json";
    bool out_explicit = false;
    std::string floor_path;
    int jobs = util::ThreadPool::defaultThreads();
    int reps = 0; // 0: pick by mode

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&](const char* key) {
            return cli::flag(a, key);
        };
        if (a == "--smoke") {
            smoke = true;
        } else if (const char* v = val("--out=")) {
            out_path = v;
            out_explicit = true;
        } else if (a == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            out_explicit = true;
        } else if (const char* vf = val("--check-floor=")) {
            floor_path = vf;
        } else if (a == "--check-floor" && i + 1 < argc) {
            floor_path = argv[++i];
        } else if (const char* v2 = val("--jobs=")) {
            if (!cli::parseInt(v2, jobs, 1, kMaxJobs))
                return usage();
        } else if (const char* v3 = val("--reps=")) {
            if (!cli::parseInt(v3, reps, 1, kMaxReps))
                return usage();
        } else {
            return usage();
        }
    }
    if (reps == 0)
        reps = smoke ? 1 : 3;

    // Replay counts are sized so every measured window is at least
    // ~100 ms of host time: sub-millisecond windows made the floor
    // ratios a lottery against scheduler jitter on shared hosts.
    const int torture_seeds = smoke ? 12 : 200;
    const int torture_replays = smoke ? 3 : 100;
    const int fig3_loops = smoke ? 64 : 1024;
    const int table4_replays = smoke ? 1 : 32;
    const int thrash_stmts = smoke ? 60 : 120;
    const int thrash_iters = smoke ? 20 : 400;
    const int thrash_replays = smoke ? 1 : 16;
    const int chain_blocks = smoke ? 40 : 800;
    const int chain_ops = 14;
    const int chain_replays = smoke ? 5 : 600;

    try {
        util::ThreadPool pool(jobs);

        // Untimed preparation, fanned out per seed.
        std::vector<Unit> torture(
            static_cast<std::size_t>(torture_seeds));
        pool.parallelFor(torture.size(), [&](std::size_t i) {
            torture[i].prog =
                verify::generate(1 + static_cast<std::uint64_t>(i))
                    .link();
            torture[i].cfg = SimConfig{};
        });

        std::vector<Unit> torture_checked = torture;
        for (Unit& u : torture_checked)
            u.cfg.checkDecode = true;

        std::vector<Unit> table4(std::size(bench::kTable4Cases));
        const std::string fig3 = fig3Source(fig3_loops);
        pool.parallelFor(table4.size(), [&](std::size_t i) {
            const bench::Table4Case& c = bench::kTable4Cases[i];
            cc::CompileOptions opts;
            opts.spread = c.spread;
            opts.predict = c.predict;
            table4[i].prog = cc::compile(fig3, opts).program;
            table4[i].cfg = SimConfig{};
            table4[i].cfg.foldPolicy = c.fold;
        });

        std::vector<Unit> thrash(1);
        thrash[0].prog =
            cc::compile(dicThrashSource(thrash_stmts, thrash_iters), {})
                .program;
        thrash[0].cfg = SimConfig{};

        std::vector<Unit> chain(1);
        chain[0].prog = chainDenseProgram(chain_blocks, chain_ops);
        chain[0].cfg = SimConfig{};

        struct Row
        {
            const char* name;
            const std::vector<Unit>* units;
            int replays;
        };
        const Row rows[] = {
            {"torture_replay", &torture, torture_replays},
            {"torture_replay_checked", &torture_checked,
             torture_replays},
            {"table4_fig3", &table4, table4_replays},
            {"dic_thrash", &thrash, thrash_replays},
            {"chain_dense", &chain, chain_replays},
        };

        std::ostringstream os;
        os << "{\"schema\":\"crisp-bench-perf/6\""
           << ",\"mode\":\"" << (smoke ? "smoke" : "full") << "\""
           << ",\"jobs\":" << jobs << ",\"reps\":" << reps
           << ",\"workloads\":[";
        bool first = true;
        struct Speedup
        {
            std::string name;
            double hot = 0;
            double e2e = 0;
        };
        std::vector<Speedup> speedups;
        for (const Row& row : rows) {
            // Interleave the two machines inside each repetition —
            // cycle simulator and engine back-to-back — so a slow or
            // fast host phase hits both sides of every ratio equally.
            // Measuring all reps of one machine before the next made
            // the floor ratios a function of multi-second host drift,
            // not of the code.
            Measure fast, engine;
            for (int r = 0; r < reps; ++r) {
                keepBest(fast, runOnce<CrispCpu>(*row.units,
                                                 row.replays), r);
                keepBest(engine, runOnce<FastEngine>(*row.units,
                                                     row.replays), r);
            }
            const double engine_x = fast.hotSeconds > 0 &&
                                            engine.hotSeconds > 0
                                        ? fast.hotSeconds /
                                              engine.hotSeconds
                                        : 0.0;
            const double engine_e2e_x =
                fast.endToEndSeconds > 0 && engine.endToEndSeconds > 0
                    ? fast.endToEndSeconds / engine.endToEndSeconds
                    : 0.0;
            speedups.push_back({row.name, engine_x, engine_e2e_x});
            if (!first)
                os << ",";
            first = false;
            os << "{\"name\":\"" << row.name << "\""
               << ",\"units\":" << row.units->size()
               << ",\"replays\":" << row.replays << ",";
            jsonMeasure(os, "fast", fast);
            os << ",";
            jsonMeasure(os, "fastengine", engine);
            os << ",\"hotSpeedupEngineOverFast\":" << engine_x
               << ",\"e2eSpeedupEngineOverFast\":" << engine_e2e_x
               << "}";
            std::fprintf(
                stderr,
                "bench_perf: %-24s fast %8.2f Minstr/s "
                "(%8.2f Mcyc/s); "
                "engine %8.2f Minstr/s hot / %8.2f e2e, "
                "x%.2f/x%.2f\n",
                row.name,
                static_cast<double>(fast.simInstructions) /
                    fast.hotSeconds / 1e6,
                static_cast<double>(fast.simCycles) /
                    fast.hotSeconds / 1e6,
                static_cast<double>(engine.simInstructions) /
                    engine.hotSeconds / 1e6,
                static_cast<double>(engine.simInstructions) /
                    engine.endToEndSeconds / 1e6,
                engine_x, engine_e2e_x);
        }
        os << "]}";

        if (!floor_path.empty()) {
            std::ifstream in(floor_path);
            if (!in)
                throw CrispError("bench_perf: cannot read baseline: " +
                                 floor_path);
            std::stringstream ss;
            ss << in.rdbuf();
            const std::string base = ss.str();
            bool ok = true;
            for (const Speedup& sp : speedups) {
                const struct
                {
                    const char* key;
                    const char* what;
                    double got;
                } checks[] = {
                    {"hotSpeedupEngineOverFast", "hot", sp.hot},
                    {"e2eSpeedupEngineOverFast", "e2e", sp.e2e},
                };
                for (const auto& c : checks) {
                    const double want =
                        committedRatio(base, sp.name, c.key);
                    const double floor = 0.6 * want;
                    std::fprintf(
                        stderr,
                        "bench_perf: %-24s engine %s speedup x%.2f "
                        "(committed x%.2f, floor x%.2f)%s\n",
                        sp.name.c_str(), c.what, c.got, want, floor,
                        c.got >= floor ? "" : "  <-- BELOW FLOOR");
                    if (c.got < floor)
                        ok = false;
                }
            }
            if (!ok) {
                std::fprintf(
                    stderr,
                    "bench_perf: fast-engine hot loop regressed more "
                    "than 40%% relative to %s\n",
                    floor_path.c_str());
                return 1;
            }
            std::printf("bench_perf floor check: ok\n");
            if (!out_explicit)
                return 0; // comparison run: nothing to record
        }

        const std::string json = os.str();
        if (!util::jsonValid(json))
            throw CrispError(
                "bench_perf: generated JSON failed validation");
        std::ofstream out(out_path);
        if (!out)
            throw CrispError("bench_perf: cannot write: " + out_path);
        out << json << "\n";
        out.close();
        std::fprintf(stderr, "bench_perf: wrote %s (%zu bytes)\n",
                     out_path.c_str(), json.size() + 1);
        if (smoke)
            std::printf("bench_perf smoke: ok\n");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_perf: %s\n", e.what());
        return 1;
    }
}
