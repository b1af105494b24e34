/**
 * @file
 * crisplint — static analysis of CRISP object files and assembly.
 *
 *   crisplint file.obj|file.s [--fold=none|crisp|all]
 *             [--predict=none|heuristic|naive] [--stack-words=N]
 *             [--dot] [--json] [--sarif] [--cost] [--no-info]
 *             [--smoke]
 *
 * Builds the issue-point CFG with the PDU's own fold decoder, runs the
 * reaching-compare / fold-eligibility / stack-window dataflow passes,
 * and reports every violated invariant with a rule id and a fix hint
 * (the catalogue lives in docs/ANALYSIS.md).
 *
 *   --dot          print the basic-block CFG as Graphviz instead
 *   --json         print the full machine-readable report
 *   --sarif        print the diagnostics as a SARIF 2.1.0 log
 *                  (schema: docs/ANALYSIS.md; PCs become region byte
 *                  offsets into the input artifact)
 *   --cost         append the abstract-interpretation cost table —
 *                  per-site static delay bounds in cycles — to the
 *                  text report (--json already embeds the bounds)
 *   --fold=        fold policy to analyze under (default crisp; the
 *                  same flag and values as crisprun)
 *   --predict=     prediction-bit convention to check (default
 *                  heuristic; `none` for generated/torture programs,
 *                  `naive` for all-not-taken builds)
 *   --stack-words= stack-cache window to check operands against
 *   --no-info      drop info-level diagnostics from the text report
 *   --smoke        run the built-in self-test and exit
 *
 * Exit status: 0 clean (info diagnostics allowed), 1 when any warning
 * or error fires, 2 on usage problems, 3 when the input cannot be
 * loaded or decoded.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/checks.hh"
#include "asm/assembler.hh"
#include "cli.hh"
#include "isa/objfile.hh"

namespace
{

using namespace crisp;
using namespace crisp::analysis;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: crisplint file.obj|file.s\n"
        "                 [--fold=none|crisp|all]\n"
        "                 [--predict=none|heuristic|naive]\n"
        "                 [--stack-words=N] [--dot] [--json]\n"
        "                 [--sarif] [--cost] [--no-info] [--smoke]\n");
    return 2;
}

std::vector<std::uint8_t>
readBytes(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw CrispError("cannot open: " + path);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                     std::istreambuf_iterator<char>());
}

/** Object files lead with "CRSP"; anything else is assembly text. */
Program
loadInput(const std::string& path)
{
    const std::vector<std::uint8_t> bytes = readBytes(path);
    if (bytes.size() >= 4 && bytes[0] == 'C' && bytes[1] == 'R' &&
        bytes[2] == 'S' && bytes[3] == 'P') {
        return loadObject(bytes);
    }
    return assemble(std::string(bytes.begin(), bytes.end()));
}

bool
hasRule(const AnalysisResult& r, const char* rule)
{
    for (const Diagnostic& d : r.diags) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

/**
 * Built-in self-test: a clean program must lint clean, and a program
 * seeded with one of each violation class must trip the matching rules.
 */
int
smoke()
{
    // Clean: spread compare (3 slots, the 3rd folding the branch),
    // forward branch predicted not-taken, no dead code.
    AsmBuilder clean;
    clean.label("main");
    clean.emit(Instruction::enter(2));
    clean.emit(Instruction::mov(Operand::stack(0), Operand::imm(3)));
    clean.emit(Instruction::cmp(Opcode::kCmpEq, Operand::stack(0),
                                Operand::imm(3)));
    clean.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                                Operand::imm(1)));
    clean.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                                Operand::imm(2)));
    clean.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                                Operand::imm(3)));
    clean.branch(Opcode::kIfTJmp, "done", /*predict_taken=*/false);
    clean.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                                Operand::imm(4)));
    clean.label("done");
    clean.emit(Instruction::halt());
    clean.entry("main");

    AnalysisOptions opt;
    const AnalysisResult ok = analyzeProgram(clean.link(), opt);
    if (ok.hasErrors() || ok.hasWarnings()) {
        std::printf("crisplint smoke: FAILED, clean program reported\n%s",
                    ok.toString().c_str());
        return 1;
    }

    // Seeded violations: an adjacent compare/branch (short spread) that
    // is also a backward loop branch predicted not-taken, plus dead
    // code past the halt.
    AsmBuilder bad;
    bad.label("main");
    bad.emit(Instruction::enter(2));
    bad.emit(Instruction::mov(Operand::stack(0), Operand::imm(2)));
    bad.label("loop");
    bad.emit(Instruction::alu(Opcode::kSub, Operand::stack(0),
                              Operand::imm(1)));
    bad.emit(Instruction::cmp(Opcode::kCmpGt, Operand::stack(0),
                              Operand::imm(0)));
    bad.branch(Opcode::kIfTJmp, "loop", /*predict_taken=*/false);
    bad.emit(Instruction::halt());
    bad.emit(Instruction::alu(Opcode::kAdd, Operand::stack(1),
                              Operand::imm(7)));
    bad.entry("main");

    const AnalysisResult found = analyzeProgram(bad.link(), opt);
    for (const char* rule : {"spread.short", "predict.backward-not-taken",
                             "cfg.unreachable"}) {
        if (!hasRule(found, rule)) {
            std::printf("crisplint smoke: FAILED, seeded violation "
                        "%s not detected\n%s",
                        rule, found.toString().c_str());
            return 1;
        }
    }
    std::printf("crisplint smoke: ok\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string input;
    bool dot = false;
    bool json = false;
    bool sarif = false;
    bool show_cost = false;
    bool no_info = false;
    bool run_smoke = false;
    AnalysisOptions opt;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&](const char* key) { return cli::flag(a, key); };
        if (a == "--dot") {
            dot = true;
        } else if (a == "--json") {
            json = true;
        } else if (a == "--sarif") {
            sarif = true;
        } else if (a == "--cost") {
            show_cost = true;
        } else if (a == "--no-info") {
            no_info = true;
        } else if (a == "--smoke") {
            run_smoke = true;
        } else if (const char* v = val("--fold=")) {
            if (!cli::parseFold(v, opt.policy))
                return usage();
        } else if (const char* v2 = val("--predict=")) {
            const std::string p = v2;
            if (p == "none")
                opt.predict = PredictConvention::kNone;
            else if (p == "heuristic")
                opt.predict = PredictConvention::kHeuristic;
            else if (p == "naive")
                opt.predict = PredictConvention::kAllNotTaken;
            else
                return usage();
        } else if (const char* v3 = val("--stack-words=")) {
            if (!cli::parseInt(v3, opt.stackCacheWords, 1, 65536))
                return usage();
        } else if (!a.empty() && a[0] == '-') {
            return usage();
        } else if (input.empty()) {
            input = a;
        } else {
            return usage();
        }
    }

    if (run_smoke)
        return smoke();
    if (input.empty())
        return usage();
    opt.foldInfo = !no_info;

    try {
        const crisp::Program prog = loadInput(input);
        const AnalysisResult r = analyzeProgram(prog, opt);
        if (dot) {
            std::fputs(r.cfg->toDot().c_str(), stdout);
        } else if (sarif) {
            std::printf("%s\n", r.toSarif(input).c_str());
        } else if (json) {
            std::printf("%s\n", r.toJson().c_str());
        } else {
            std::fputs(r.toString().c_str(), stdout);
        }
        if (show_cost && !dot && !json && !sarif)
            std::fputs(r.costTableText().c_str(), stdout);
        return r.hasErrors() || r.hasWarnings() ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crisplint: %s\n", e.what());
        return 3;
    }
}
