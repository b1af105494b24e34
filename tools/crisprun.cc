/**
 * @file
 * crisprun — run a CRISP program (C source, assembly or object file)
 * on any of the four engines with full statistics.
 *
 *   crisprun program.{c,s,obj}
 *            [--engine=cycle|fast|interp|delayed]
 *            [--fold=none|crisp|all] [--dic=N] [--mem-latency=N]
 *            [--stack-cache=N] [--stack-penalty=N]
 *            [--no-predict-bit] [--profile-opt]
 *            [--trace[=N]] [--stats] [--histogram]
 *            [--stats-json FILE]
 *
 *   --engine=KIND  the machine to run on: "cycle" (the default) is
 *                  the pipeline simulator, "fast" the threaded-code
 *                  functional engine (architectural results and opcode
 *                  statistics at native speed, no cycle timing),
 *                  "interp" the reference interpreter and "delayed"
 *                  the delayed-branch baseline machine.
 *   --profile-opt  run once on the interpreter and patch profile-
 *                  optimal prediction bits before the measured run
 *   --annul        with --engine=delayed: squashing (annulling) delay
 *                  slots, filled from branch targets
 *   --trace[=N]    print a per-cycle pipeline trace (first N cycles)
 *   --histogram    print the dynamic opcode histogram
 *   --stats-json FILE  (cycle and fast engines) write the full
 *                  SimStats as a JSON object to FILE ("-" for stdout)
 *
 * The program's exit value (main's return, i.e. the accumulator) is
 * printed; a delayed-branch machine requires a program compiled with
 * crispcc --delay-slots.
 */

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>

#include "baseline/delayed.hh"
#include "cc/compiler.hh"
#include "cli.hh"
#include "interp/interpreter.hh"
#include "predict/profile.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: crisprun program.{c,s,obj} [options]\n"
        "  --engine=cycle|fast|interp|delayed  (default cycle; fast: "
        "threaded functional engine)\n"
        "  --fold=none|crisp|all  --dic=N (power of two <= 65536)\n"
        "  --mem-latency=N (0-10000)  --stack-cache=N (1-65536)\n"
        "  --stack-penalty=N (0-10000)  --no-predict-bit\n"
        "  --max-cycles=N  --profile-opt  --annul  --trace[=N]  "
        "--stats  --histogram\n"
        "  --stats-json FILE  (cycle and fast only; \"-\" for "
        "stdout)\n"
        "exit status: 0 ok, 1 load/internal error, 2 usage,\n"
        "             3 cycle limit exceeded, 4 machine fault\n");
    return 2;
}

/** Report a machine fault the same way on every engine: exit 4. */
int
machineFault(crisp::Addr pc, const char* reason)
{
    std::fprintf(stderr, "crisprun: machine fault at 0x%x: %s\n",
                 static_cast<unsigned>(pc), reason);
    return 4;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace crisp;

    std::string input;
    std::string engine = "cycle";
    SimConfig cfg;
    bool want_stats = false;
    bool want_histogram = false;
    std::string stats_json_path;
    bool profile_opt = false;
    long trace_cycles = 0;
    bool annul = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&](const char* key) { return cli::flag(a, key); };
        if (const char* v = val("--engine=")) {
            engine = v;
            if (engine != "cycle" && engine != "fast" &&
                engine != "interp" && engine != "delayed")
                return usage();
        } else if (const char* v2 = val("--fold=")) {
            if (!cli::parseFold(v2, cfg.foldPolicy))
                return usage();
        } else if (const char* v3 = val("--dic=")) {
            // --dic and --mem-latency take the ranges crispd admits.
            if (!cli::parseInt(v3, cfg.dicEntries, 1, 65536) ||
                !std::has_single_bit(
                    static_cast<unsigned>(cfg.dicEntries)))
                return usage();
        } else if (const char* v4 = val("--mem-latency=")) {
            if (!cli::parseInt(v4, cfg.memLatency, 0, 10'000))
                return usage();
        } else if (const char* v5 = val("--stack-cache=")) {
            if (!cli::parseInt(v5, cfg.stackCacheWords, 1, 65536))
                return usage();
        } else if (const char* v6 = val("--stack-penalty=")) {
            if (!cli::parseInt(v6, cfg.stackCacheMissPenalty, 0, 10'000))
                return usage();
        } else if (const char* v8 = val("--max-cycles=")) {
            if (!cli::parseInt(v8, cfg.maxCycles, 1,
                               std::numeric_limits<std::uint64_t>::max()))
                return usage();
        } else if (a == "--no-predict-bit") {
            cfg.respectPredictionBit = false;
        } else if (a == "--annul") {
            annul = true;
        } else if (a == "--profile-opt") {
            profile_opt = true;
        } else if (a == "--stats") {
            want_stats = true;
        } else if (const char* v9 = val("--stats-json=")) {
            stats_json_path = v9;
        } else if (a == "--stats-json" && i + 1 < argc) {
            stats_json_path = argv[++i];
        } else if (a == "--histogram") {
            want_histogram = true;
        } else if (a == "--trace") {
            trace_cycles = 200;
        } else if (const char* v7 = val("--trace=")) {
            if (!cli::parseInt(v7, trace_cycles, 0,
                               std::numeric_limits<long>::max()))
                return usage();
        } else if (!a.empty() && a[0] == '-') {
            return usage();
        } else if (input.empty()) {
            input = a;
        } else {
            return usage();
        }
    }
    if (input.empty())
        return usage();

    try {
        cc::CompileOptions opts;
        opts.delaySlots = engine == "delayed";
        opts.annulSlots = annul;
        Program prog = cli::loadProgram(input, opts);

        if (profile_opt) {
            prog = profileOptimize(prog);
            std::fprintf(stderr, "crisprun: applied profile-optimal "
                                 "prediction bits\n");
        }

        // The interpreter and the delayed-branch machine throw a
        // machine fault out of run(); the pipeline engines record it.
        std::string fault;
        if (engine == "interp") {
            Interpreter interp(prog);
            try {
                interp.run();
            } catch (const CrispError& e) {
                fault = e.what();
            }
            const InterpResult& r = interp.result();
            std::printf("exit value: %d\n",
                        static_cast<int>(interp.accum()));
            if (want_stats) {
                std::printf("instructions: %llu\nbranches: %llu "
                            "(one-parcel %llu)\n",
                            static_cast<unsigned long long>(
                                r.instructions),
                            static_cast<unsigned long long>(r.branches),
                            static_cast<unsigned long long>(
                                r.shortBranches));
            }
            if (want_histogram)
                std::fputs(r.histogramTable().c_str(), stdout);
            if (!fault.empty())
                return machineFault(interp.pc(), fault.c_str());
            if (!r.halted) {
                std::fprintf(stderr, "crisprun: step limit exceeded "
                                     "without reaching halt\n");
                return 3;
            }
            return 0;
        }

        if (engine == "delayed") {
            DelayedBranchCpu cpu(prog, annul);
            try {
                cpu.run();
            } catch (const CrispError& e) {
                fault = e.what();
            }
            const DelayedStats& s = cpu.stats();
            std::printf("exit value: %d\n",
                        static_cast<int>(cpu.accum()));
            if (want_stats) {
                std::printf("cycles: %llu\ninstructions: %llu\nnop "
                            "slots: %llu\ninterlock stalls: %llu\n"
                            "annulled slots: %llu\nCPI: %.3f\n",
                            static_cast<unsigned long long>(s.cycles),
                            static_cast<unsigned long long>(
                                s.instructions),
                            static_cast<unsigned long long>(s.nopSlots),
                            static_cast<unsigned long long>(
                                s.interlockStalls),
                            static_cast<unsigned long long>(
                                s.annulledSlots),
                            s.cpi());
            }
            if (!fault.empty())
                return machineFault(cpu.pc(), fault.c_str());
            return s.halted ? 0 : 3;
        }

        const bool fast = engine == "fast";
        std::optional<FastEngine> eng;
        std::optional<CrispCpu> cpu;
        if (fast) {
            eng.emplace(prog, cfg);
            eng->run();
        } else {
            cpu.emplace(prog, cfg);
            if (trace_cycles > 0) {
                cpu->setTraceSink(
                    [remaining = trace_cycles](
                        const std::string& line) mutable {
                        if (remaining-- > 0)
                            std::puts(line.c_str());
                    });
            }
            cpu->run();
        }
        const SimStats& s = fast ? eng->stats() : cpu->stats();
        const Word accum = fast ? eng->accum() : cpu->accum();
        std::printf("exit value: %d\n", static_cast<int>(accum));
        if (want_stats)
            std::fputs(s.toString().c_str(), stdout);
        if (!stats_json_path.empty()) {
            const std::string json = s.toJson() + "\n";
            if (stats_json_path == "-") {
                std::fputs(json.c_str(), stdout);
            } else {
                std::ofstream out(stats_json_path);
                if (!out)
                    throw CrispError("cannot write: " +
                                     stats_json_path);
                out << json;
            }
        }
        if (want_histogram) {
            InterpResult hist;
            hist.instructions = s.apparent;
            hist.opcodeCounts = s.opcodeCounts;
            std::fputs(hist.histogramTable().c_str(), stdout);
        }
        if (s.faulted)
            return machineFault(s.faultPc, s.faultReason.c_str());
        if (!s.halted) {
            // The fast engine keeps no cycle count: its limit is
            // reported in instructions.
            std::fprintf(stderr,
                         "crisprun: cycle limit exceeded "
                         "(%llu %s) without reaching halt\n",
                         static_cast<unsigned long long>(
                             fast ? s.apparent : s.cycles),
                         fast ? "instructions" : "cycles");
            return 3;
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crisprun: %s\n", e.what());
        return 1;
    }
}
