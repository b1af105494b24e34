/**
 * @file
 * Workload inputs. Every input derives from the workload name and the
 * command-line seed alone; the program under test sees only the
 * generated sources, images and references.
 */

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "bench.hh"
#include "cc/compiler.hh"
#include "interp/interpreter.hh"
#include "isa/objfile.hh"
#include "verify/generator.hh"
#include "workloads/workloads.hh"

namespace layerbench
{

using namespace crisp;

namespace
{

/** Generated programs in the torture workload, and its -O sources. */
constexpr int kTorturePrograms = 512;
constexpr int kTortureOptPrograms = 64;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * A CRISP-C program of the shape `crisptorture --opt` sweeps: a
 * masked-LCG reduction loop of @p n iterations whose range guard the
 * seed makes provably never taken, genuinely dynamic, or correlated
 * with a data bit.
 */
std::string
optSource(std::uint64_t seed, int n)
{
    std::uint64_t x = seed | 1;
    const auto draw = [&](int m) {
        x = splitmix(x);
        return static_cast<int>(x % static_cast<std::uint64_t>(m));
    };
    static const int kMasks[] = {31, 63, 127, 255, 1023};
    static const char* kOps[] = {"+", "^", "|"};
    const int mask = kMasks[draw(5)];
    const bool never = draw(2) == 0;
    const bool corr = draw(2) == 0;
    const char* op = kOps[draw(3)];
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
                  s0, never ? mask : mask / 2, n, mask,
                  corr ? "v & 1" : "0", errinc, deadmul, op);
    return buf;
}

Subject
corpusSubject(const std::string& name, std::uint64_t probe_seed)
{
    const Workload& w = workload(name);
    Subject s;
    s.name = w.name;
    s.source = w.source;
    s.genSeed = probe_seed;
    s.golden.globals = w.expectedGlobals;
    s.golden.checkAccum = w.checkAccum;
    s.golden.accum = w.expectedAccum;
    return s;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "corpus_long", "corpus_short", "torture"};
    return kNames;
}

Inputs
buildInputs(const std::string& workload, std::uint64_t seed)
{
    Inputs in;
    std::vector<std::string> corpus;
    if (workload == "corpus_long") {
        corpus = {"troff", "ccomp", "drc",  "dhry",  "cwhet",
                  "sieve", "sort",  "matmul", "puzzle"};
        // A pass takes ~2 s.
        in.servePasses = 3;
    } else if (workload == "corpus_short") {
        corpus = {"fig3", "crc8", "quant", "lex", "vmtrace", "vmmode"};
        in.servePasses = 9;
    } else if (workload == "torture") {
        in.lintPredict = analysis::PredictConvention::kNone;
        // Each slice holds every job shape twice (see ServeClient).
        in.serveSlice = 36;
        in.servePasses = 9;
        // Its jobs take ~0.1 ms, so a deeper tail than the 94th
        // percentile would time the host's scheduling hiccups rather
        // than the service.
        in.serveJobs = 180;
        for (int i = 0; i < kTorturePrograms; ++i) {
            Subject s;
            s.genSeed = splitmix(seed ^ splitmix(static_cast<std::uint64_t>(i)));
            s.name = "gen-" + std::to_string(s.genSeed);
            s.interpGolden = true;
            in.programs.push_back(std::move(s));
        }
        // Loop counts are stratified: crisptorture --opt draws each from
        // [16, 63], and here the sources share out that range evenly in
        // a seeded order. The count scales a program's cycles, so
        // independent draws made opt_sim_cycles move 5-10% with the seed
        // against its 10% bound.
        std::vector<int> loops(kTortureOptPrograms);
        for (int i = 0; i < kTortureOptPrograms; ++i)
            loops[i] = 16 + i * 48 / kTortureOptPrograms;
        std::uint64_t order = splitmix(seed + 0x6f7074ull);
        for (int i = kTortureOptPrograms - 1; i > 0; --i) {
            order = splitmix(order);
            const auto j = order % static_cast<std::uint64_t>(i + 1);
            std::swap(loops[i], loops[j]);
        }
        for (int i = 0; i < kTortureOptPrograms; ++i) {
            Subject s;
            const std::uint64_t src_seed =
                splitmix(~seed ^ splitmix(static_cast<std::uint64_t>(i)));
            s.name = "opt-" + std::to_string(src_seed);
            s.source = optSource(src_seed, loops[i]);
            s.golden.globals = {{"out", 0}, {"errs", 0}, {"seed", 0}};
            s.golden.checkAccum = true;
            s.interpGolden = true;
            in.optPrograms.push_back(std::move(s));
        }
        return in;
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    for (std::size_t i = 0; i < corpus.size(); ++i)
        in.programs.push_back(corpusSubject(corpus[i], splitmix(seed + i)));
    // One job per program and engine: the serve client's slices.
    in.serveSlice = 2 * static_cast<int>(corpus.size());
    in.optPrograms = in.programs;
    return in;
}

void
computeReferences(Inputs& in, Counts& counts)
{
    Recorder off;
    for (Subject& s : in.programs) {
        const Program prog = programOf(s, off);
        Interpreter interp(prog);
        const InterpResult r = interp.run();
        if (!r.halted)
            throw std::runtime_error(s.name + ": reference did not halt");
        s.exitValue = interp.accum();
        s.refInstructions = r.instructions;
        s.budget = r.instructions * 48 + 50'000;
        if (s.interpGolden) {
            for (int g = 0; g < verify::kGenGlobals; ++g) {
                const std::string name = "g" + std::to_string(g);
                s.golden.globals.emplace_back(
                    name, static_cast<Word>(interp.memory().read32(
                              *prog.lookup(name))));
            }
            s.golden.checkAccum = true;
            s.golden.accum = s.exitValue;
        }
        s.image = saveObject(prog);
        analysis::AnalysisOptions lint;
        lint.predict = in.lintPredict;
        const analysis::AnalysisResult ar =
            analysis::analyzeProgram(loadObject(s.image), lint);
        s.lintHash = fnv1a(ar.toJson());
        counts["analysis.nodes"] += static_cast<double>(ar.cfg->nodes().size());
        counts["analysis.absint_steps"] += static_cast<double>(ar.absint.steps);
        counts["analysis.sccp_steps"] +=
            static_cast<double>(ar.sccp.state.steps);
        counts["analysis.targets_steps"] +=
            static_cast<double>(ar.targets.steps);
        counts["analysis.unconverged"] +=
            (ar.absint.converged ? 0 : 1) + (ar.sccp.state.converged ? 0 : 1) +
            (ar.live.converged ? 0 : 1) + (ar.reachdefs.converged ? 0 : 1) +
            (ar.targets.converged ? 0 : 1);
    }
    for (Subject& s : in.optPrograms) {
        const cc::CompileResult base = cc::compile(s.source);
        Interpreter interp(base.program);
        const InterpResult r = interp.run();
        if (!r.halted)
            throw std::runtime_error(s.name + ": reference did not halt");
        s.budget = r.instructions * 48 + 50'000;
        if (!s.interpGolden)
            continue;
        for (auto& [name, value] : s.golden.globals)
            value = static_cast<Word>(
                interp.memory().read32(*base.program.lookup(name)));
        s.golden.accum = interp.accum();
    }
}

std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace layerbench
