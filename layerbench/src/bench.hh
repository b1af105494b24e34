/**
 * @file
 * Workload inputs and the single-threaded user paths layerbench times.
 *
 * Each path is built from the same public calls the tool it stands for
 * makes, so a time describes the shipped path:
 *
 *   cycle  crispcc -> crisprun --engine=cycle
 *   fast   crispcc -> crisprun --engine=fast (hint analysis first)
 *   lint   crisplint --json on the object image
 *   opt    crispcc -O (translation validation included), then a golden
 *          run of the shipped binary
 *   check  crisptorture's quick battery: lockstep and static oracle
 *          under each fold policy, plus the fast-engine lockstep
 *
 * Every path checks its output and reports a failure instead of a time.
 */

#ifndef LAYERBENCH_BENCH_HH
#define LAYERBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/checks.hh"
#include "isa/program.hh"
#include "trace.hh"

namespace layerbench
{

using crisp::Word;

/** Expected final state of one program. */
struct Golden
{
    std::vector<std::pair<std::string, Word>> globals;
    bool checkAccum = false;
    Word accum = 0;
};

/** One program a path runs on. */
struct Subject
{
    std::string name;
    /** CRISP-C source; empty for a generated (assembly-level) program. */
    std::string source;
    /** verify::generate seed of a generated program. */
    std::uint64_t genSeed = 0;
    Golden golden;
    /** The golden values come from the reference interpreter (generated
     *  programs) rather than the workload's frozen mirror values. */
    bool interpGolden = false;
    /** Linked object image: the lint input and the serve job image. */
    std::vector<std::uint8_t> image;
    /** The reference interpreter's exit value and instruction count. */
    Word exitValue = 0;
    std::uint64_t refInstructions = 0;
    /**
     * Cycle budget of every run: 48 cycles per reference instruction
     * plus 50,000, the budget crisptorture's lockstep gives. A program
     * the simulator fails to halt then fails in milliseconds instead of
     * spinning to the 2-billion-cycle default.
     */
    std::uint64_t budget = 0;
    /** FNV-1a of the crisplint --json report (the lint reference). */
    std::uint64_t lintHash = 0;

    bool generated() const { return source.empty(); }
};

struct Inputs
{
    /** cycle / fast / lint / check / serve subjects. */
    std::vector<Subject> programs;
    /** opt subjects (CRISP-C sources). */
    std::vector<Subject> optPrograms;
    /** crisplint --predict convention (none for generated programs). */
    crisp::analysis::PredictConvention lintPredict =
        crisp::analysis::PredictConvention::kHeuristic;
    /**
     * Serve jobs per slice, and the jobs of one pass: 0 takes the whole
     * seeded mix, so only the order depends on the seed. A run serves
     * the pass servePasses times, paced through the window.
     */
    int serveSlice = 32;
    int serveJobs = 0;
    int servePasses = 1;
};

const std::vector<std::string>& workloadNames();

/** Build @p workload's inputs from @p seed; throws on an unknown name. */
Inputs buildInputs(const std::string& workload, std::uint64_t seed);

/** Exact per-layer counts, summed over one pass of the workload. */
using Counts = std::map<std::string, double>;

/**
 * Fill in the references the paths check against: the interpreter's
 * exit values and instruction counts, golden globals of generated
 * programs, and the crisplint --json report of every program. That
 * report run is the lint path's warm-up; its analysis counts go to
 * @p counts.
 */
void computeReferences(Inputs& in, Counts& counts);

enum class PathKind { kCycle = 0, kFast, kLint, kOpt, kCheck };
inline constexpr int kPathCount = 5;
const char* pathName(PathKind p);

/**
 * Run one path on one subject. @p counts, when non-null, receives the
 * path's exact counts (the warm-up pass). @return false, with the
 * reason in @p why, when the output is wrong.
 */
bool runPath(PathKind p, const Subject& s, const Inputs& in,
             Recorder& tr, Counts* counts, std::string* why);

/**
 * Standalone layer probes for the traced run: the analysis sequence
 * one step at a time in analyzeProgram's order, predecode, translate,
 * the interpreter, the generator and the validator.
 */
void runProbes(const Subject& s, const Subject* opt, Recorder& tr);

/** The program a path runs, built as its tool builds it. */
crisp::Program programOf(const Subject& s, Recorder& tr);

/**
 * The analysis sequence one step at a time, in analyzeProgram's order,
 * with a span around each step, ending with the analyses the rule checks
 * run. Only the diagnostics themselves are not rebuilt: the checks that
 * format them have internal linkage in checks.cc.
 */
crisp::analysis::AnalysisResult analyzeSteps(const crisp::Program& prog,
                                             Recorder& tr);

/** Largest |cycles - paper| / paper over Table 4 cases A-E, in %. */
double table4ErrorPct();

std::uint64_t fnv1a(const std::string& s);

} // namespace layerbench

#endif // LAYERBENCH_BENCH_HH
