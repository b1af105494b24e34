/**
 * @file
 * crispcc — command-line driver for the CRISP-C compiler.
 *
 *   crispcc input.c [-o out.obj] [-S] [-O] [--no-spread]
 *           [--no-peephole] [--predict=naive|heuristic]
 *           [--delay-slots] [--disasm] [--verify] [--stats-json]
 *           [--cost-audit] [--targets] [--tamper-dce]
 *
 *   -S            print the assembly listing instead of writing output
 *   -o FILE       write a linked CRISP object file
 *   -O            run the dataflow optimizer (constant-branch folding,
 *                 dead-code elimination, copy propagation, ccDead-aware
 *                 re-spread), gated by the translation validator
 *   --disasm      print the binary disassembly
 *   --no-spread   disable the Branch Spreading pass
 *   --predict=    prediction-bit mode (default heuristic)
 *   --delay-slots target the delayed-branch baseline machine
 *   --verify      audit the compilation against the static analyzer
 *                 (exit 1 on any discrepancy); with -O also print the
 *                 translation-validator verdict
 *   --stats-json  print the compile-time statistics the analyzer can
 *                 derive without simulating; with -O, include the
 *                 optimizer's per-pass report (instructions
 *                 before/after, branches rewritten, dead stores
 *                 removed, cost-envelope delta)
 *   --cost-audit  print the per-site static delay-bound table and
 *                 audit the compiler's spread claims against it: every
 *                 fully-spread branch must be provably free ([0, 0]
 *                 cycles). Exit 1 when any claim escapes its bound.
 *   --targets     print the interprocedural indirect-target report:
 *                 per indirect branch / return site, the proven target
 *                 set (or the top fallback), plus the call-graph
 *                 summary backing the return-site matching
 *   --tamper-dce  (testing) deliberately delete one live store during
 *                 -O and skip the validator fallback
 *
 * Exit codes: 0 success, 1 compile/verify/audit failure, 2 usage,
 * 4 the optimizer shipped a rewrite the translation validator rejects
 * (only reachable via --tamper-dce; a genuine TV failure falls back to
 * the unoptimized baseline and exits 0).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/ccverify.hh"
#include "analysis/opt.hh"
#include "cc/compiler.hh"
#include "cli.hh"
#include "isa/objfile.hh"

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: crispcc input.c [-o out.obj] [-S] [-O] [--disasm]\n"
        "               [--no-spread] [--no-peephole]\n"
        "               [--predict=naive|heuristic] [--delay-slots]\n"
        "               [--verify] [--stats-json] [--cost-audit]\n"
        "               [--targets] [--tamper-dce]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace crisp;

    std::string input;
    std::string output;
    bool listing = false;
    bool disasm = false;
    bool verify = false;
    bool stats_json = false;
    bool cost_audit = false;
    bool targets_report = false;
    bool optimize = false;
    cc::CompileOptions opts;
    analysis::OptOptions oopts;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "-S") {
            listing = true;
        } else if (a == "--disasm") {
            disasm = true;
        } else if (a == "-o") {
            if (++i >= argc)
                return usage();
            output = argv[i];
        } else if (a == "-O" || a == "--optimize") {
            optimize = true;
        } else if (a == "--tamper-dce") {
            optimize = true;
            oopts.tamperDce = true;
        } else if (a == "--no-spread") {
            opts.spread = false;
        } else if (a == "--no-peephole") {
            opts.peephole = false;
        } else if (a == "--delay-slots") {
            opts.delaySlots = true;
        } else if (a == "--verify") {
            verify = true;
        } else if (a == "--stats-json") {
            stats_json = true;
        } else if (a == "--cost-audit") {
            cost_audit = true;
        } else if (a == "--targets") {
            targets_report = true;
        } else if (a == "--predict=naive") {
            opts.predict = cc::PredictMode::kAllNotTaken;
        } else if (a == "--predict=heuristic") {
            opts.predict = cc::PredictMode::kBackwardTaken;
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
        cc::CompileResult r = cc::compile(cli::readFile(input), opts);
        analysis::OptReport orep;
        if (optimize) {
            orep = analysis::optimize(r, opts, oopts);
            r = orep.result;
        }
        if (listing)
            std::fputs(r.listing.c_str(), stdout);
        if (disasm)
            std::fputs(r.program.disassemble().c_str(), stdout);
        if (!output.empty()) {
            saveObjectFile(r.program, output);
            std::fprintf(stderr, "wrote %s (%zu parcels, %zu data "
                                 "bytes)\n",
                         output.c_str(), r.program.text.size(),
                         r.program.data.size());
        }
        if (verify || stats_json || cost_audit || targets_report) {
            const analysis::VerifyReport v =
                analysis::verifyCompile(r, opts);
            if (targets_report && v.applicable) {
                std::fputs(v.analysis.targetsTableText().c_str(),
                           stdout);
            } else if (targets_report) {
                std::printf("targets: not applicable "
                            "(delay-slot baseline build)\n");
            }
            if (cost_audit) {
                if (!v.applicable) {
                    std::printf("cost audit: not applicable "
                                "(delay-slot baseline build)\n");
                } else {
                    std::fputs(v.analysis.costTableText().c_str(),
                               stdout);
                    std::printf("cost audit: %s — %d spread claim(s), "
                                "%d proven free\n",
                                v.ok() ? "OK" : "FAILED",
                                v.claimedSpread, v.costZeroBound);
                    for (const std::string& p : v.problems)
                        std::printf("  %s\n", p.c_str());
                    if (!v.ok())
                        return 1;
                }
            }
            if (stats_json) {
                if (!v.applicable) {
                    std::printf("{\"applicable\": false}\n");
                } else if (optimize) {
                    std::printf("{\"applicable\": true, "
                                "\"fullySpread\": %d, "
                                "\"claimedSpread\": %d, "
                                "\"confirmedSpread\": %d, "
                                "\"opt\": %s, "
                                "\"analysis\": %s}\n",
                                r.fullySpread, v.claimedSpread,
                                v.confirmedSpread,
                                orep.toJson().c_str(),
                                v.analysis.toJson().c_str());
                } else {
                    std::printf("{\"applicable\": true, "
                                "\"fullySpread\": %d, "
                                "\"claimedSpread\": %d, "
                                "\"confirmedSpread\": %d, "
                                "\"analysis\": %s}\n",
                                r.fullySpread, v.claimedSpread,
                                v.confirmedSpread,
                                v.analysis.toJson().c_str());
                }
            }
            if (verify) {
                std::fputs(v.toString().c_str(), stderr);
                if (optimize && orep.applicable) {
                    std::fprintf(
                        stderr,
                        "tv: %s — %d site(s) matched, %d improved, "
                        "envelope %llu -> %llu%s\n",
                        orep.tv.ok ? "OK" : "REJECTED",
                        orep.tv.sitesMatched, orep.tv.sitesImproved,
                        static_cast<unsigned long long>(
                            orep.tv.envelopeHiBefore),
                        static_cast<unsigned long long>(
                            orep.tv.envelopeHiAfter),
                        orep.tvFallback ? " (fallback engaged)" : "");
                    for (const std::string& p : orep.tv.problems)
                        std::fprintf(stderr, "  %s\n", p.c_str());
                    if (!orep.tv.counterexample.empty()) {
                        std::fprintf(stderr, "  counterexample: %s\n",
                                     orep.tv.counterexample.c_str());
                    }
                }
                if (!v.ok())
                    return 1;
            }
        }
        // A shipped optimized binary the validator rejects is a hard
        // failure with its own exit code (only --tamper-dce skips the
        // fallback that otherwise prevents this).
        if (optimize && orep.optimized && !orep.tv.ok) {
            std::fprintf(stderr, "crispcc: translation validation "
                                 "FAILED on the shipped binary\n");
            for (const std::string& p : orep.tv.problems)
                std::fprintf(stderr, "  %s\n", p.c_str());
            if (!orep.tv.counterexample.empty()) {
                std::fprintf(stderr, "  counterexample: %s\n",
                             orep.tv.counterexample.c_str());
            }
            return 4;
        }
        if (!listing && !disasm && output.empty() && !verify &&
            !stats_json && !cost_audit && !targets_report) {
            std::fputs(r.listing.c_str(), stdout);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crispcc: %s\n", e.what());
        return 1;
    }
    return 0;
}
