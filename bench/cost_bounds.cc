/**
 * @file
 * bench_cost — committed static-vs-dynamic branch-cost ledger.
 *
 * For every workload in the suite: compile with the default pass
 * pipeline, run the abstract-interpretation cost engine to get the
 * per-site static delay bounds, then simulate once under the default
 * (paper) configuration and record where the dynamic cost actually
 * landed inside the static envelope.
 *
 *   bench_cost [--out=PATH]     write the ledger (default
 *                               BENCH_COST.json)
 *   bench_cost --check=PATH     regenerate and require an exact match
 *                               with the committed ledger (ctest runs
 *                               this; every field is a deterministic
 *                               integer, so any drift is a real
 *                               behaviour change in the compiler, the
 *                               analyses, the cost engine, or the
 *                               simulator)
 *
 * Each workload also records the work of every fixpoint the analysis
 * ran (steps, widenings, converged for absint, SCCP, liveness,
 * reaching definitions and targets), so a change to a solver or a
 * lattice that alters how much it iterates shows as an exact count.
 *
 * The tool also re-asserts the envelope invariant itself: a simulated
 * branchDelayCycles outside [delayLowerBound, delayUpperBound] is an
 * immediate failure, independent of the committed file.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/checks.hh"
#include "analysis/opt.hh"
#include "analysis/oracle.hh"
#include "cc/compiler.hh"
#include "sim/cpu.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace crisp;
using namespace crisp::analysis;

/**
 * Dynamic-weighted static envelope over the sites that actually
 * executed (unreached sites contribute zero executions on both ends),
 * plus the invariant check: the simulated branchDelayCycles must land
 * inside [lo, hi]. Returns false (and reports) on any violation.
 */
bool
envelope(const std::string& name, const AnalysisResult& st,
         const SiteRecorder& rec, const SimStats& dyn, std::uint64_t& lo,
         std::uint64_t& hi)
{
    bool ok = true;
    lo = hi = 0;
    for (const auto& [pc, c] : rec.sites) {
        if (const SiteCost* sc = st.cost.find(pc)) {
            lo += static_cast<std::uint64_t>(sc->bound.lo) * c.total;
            hi += static_cast<std::uint64_t>(sc->bound.hi) * c.total;
        } else {
            ok = false;
            std::fprintf(stderr,
                         "bench_cost: %s: executed branch 0x%x has "
                         "no static cost bound\n",
                         name.c_str(), pc);
        }
    }
    if (dyn.branchDelayCycles < lo || dyn.branchDelayCycles > hi) {
        ok = false;
        std::fprintf(
            stderr,
            "bench_cost: %s: branchDelayCycles %llu "
            "escapes the static envelope [%llu, %llu]\n",
            name.c_str(),
            static_cast<unsigned long long>(dyn.branchDelayCycles),
            static_cast<unsigned long long>(lo),
            static_cast<unsigned long long>(hi));
    }
    return ok;
}

/** Indirect-site verdict counts for one analyzed binary. */
struct IndirectCounts
{
    int sites = 0;     //!< indirect branch sites
    int resolved = 0;  //!< finite target set proven
    int singleton = 0; //!< exactly one proven target
    int refined = 0;   //!< bound strictly below [2, 2] (vacuous sites)
};

IndirectCounts
indirectCounts(const AnalysisResult& st)
{
    IndirectCounts ic;
    for (const auto& [pc, c] : st.cost.sites) {
        if (!c.indirect)
            continue;
        ++ic.sites;
        if (c.targetResolved)
            ++ic.resolved;
        if (c.targetSingleton)
            ++ic.singleton;
        if (c.bound.hi < 2)
            ++ic.refined;
    }
    return ic;
}

/** One solver run's exact work, as a JSON object. */
std::string
workJson(const FixpointRun& run)
{
    std::ostringstream os;
    os << "{\"steps\":" << run.steps << ",\"widenings\":" << run.widenings
       << ",\"converged\":" << (run.converged ? "true" : "false") << "}";
    return os.str();
}

std::string
buildLedger(bool& ok)
{
    ok = true;
    std::ostringstream os;
    os << "{\"schema\":\"crisp-bench-cost/4\",\"predict\":\"static-bit\","
          "\"workloads\":[";
    bool first = true;
    for (const Workload& w : allWorkloads()) {
        const cc::CompileResult r = cc::compile(w.source, {});

        AnalysisOptions opt;
        opt.predict = PredictConvention::kNone;
        opt.foldInfo = false;
        const SimConfig cfg;
        opt.costPredict = predictSourceFor(cfg);
        const AnalysisResult st = analyzeProgram(r.program, opt);

        SiteRecorder rec;
        CrispCpu cpu(r.program, cfg);
        const SimStats& dyn = cpu.run(&rec);

        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        ok &= envelope(w.name, st, rec, dyn, lo, hi);

        // The same workload through crispcc -O: the dataflow passes
        // must ship a validated rewrite whose envelope is never worse
        // than the baseline's.
        const OptReport orep = optimize(r, {});
        if (!orep.tv.ok) {
            ok = false;
            std::fprintf(stderr,
                         "bench_cost: %s: -O result failed the "
                         "translation validator\n",
                         w.name.c_str());
        }
        const AnalysisResult sto =
            analyzeProgram(orep.result.program, opt);

        SiteRecorder orec;
        CrispCpu ocpu(orep.result.program, cfg);
        const SimStats& odyn = ocpu.run(&orec);

        std::uint64_t olo = 0;
        std::uint64_t ohi = 0;
        ok &= envelope(w.name + " [-O]", sto, orec, odyn, olo, ohi);
        if (ohi > hi) {
            ok = false;
            std::fprintf(stderr,
                         "bench_cost: %s: -O envelope [%llu] exceeds "
                         "the baseline's [%llu]\n",
                         w.name.c_str(),
                         static_cast<unsigned long long>(ohi),
                         static_cast<unsigned long long>(hi));
        }

        if (!first)
            os << ",";
        first = false;
        const IndirectCounts ic = indirectCounts(st);
        const IndirectCounts oic = indirectCounts(sto);
        os << "{\"name\":\"" << w.name << "\""
           << ",\"branchSites\":" << st.staticBranchSites
           << ",\"condSites\":" << st.staticCondSites
           << ",\"zeroDelaySites\":" << st.cost.zeroDelaySites
           << ",\"constantSites\":" << st.cost.constantSites
           << ",\"maxDelayPerSite\":" << st.cost.maxDelayPerSite
           << ",\"indirectSites\":" << ic.sites
           << ",\"indirectResolved\":" << ic.resolved
           << ",\"indirectSingleton\":" << ic.singleton
           << ",\"indirectRefined\":" << ic.refined
           << ",\"delayLowerBound\":" << lo
           << ",\"delayUpperBound\":" << hi
           << ",\"branchDelayCycles\":" << dyn.branchDelayCycles
           << ",\"branches\":" << dyn.branches
           << ",\"cycles\":" << dyn.cycles
           << ",\"issued\":" << dyn.issued
           << ",\"analysis\":{"
           << "\"absint\":" << workJson(st.absint)
           << ",\"sccp\":" << workJson(st.sccp.state)
           << ",\"liveness\":" << workJson(st.live)
           << ",\"reachdefs\":" << workJson(st.reachdefs)
           << ",\"targets\":" << workJson(st.targets) << "}"
           << ",\"opt\":{"
           << "\"optimized\":" << (orep.optimized ? "true" : "false")
           << ",\"branchesRewritten\":" << orep.stats.branchesRewritten
           << ",\"deadRemoved\":" << orep.stats.deadRemoved
           << ",\"devirtualized\":" << orep.stats.devirtualized
           << ",\"instrBefore\":" << orep.stats.instrBefore
           << ",\"instrAfter\":" << orep.stats.instrAfter
           << ",\"branchSites\":" << sto.staticBranchSites
           << ",\"indirectSites\":" << oic.sites
           << ",\"indirectSingleton\":" << oic.singleton
           << ",\"zeroDelaySites\":" << sto.cost.zeroDelaySites
           << ",\"constantSites\":" << sto.cost.constantSites
           << ",\"delayLowerBound\":" << olo
           << ",\"delayUpperBound\":" << ohi
           << ",\"branchDelayCycles\":" << odyn.branchDelayCycles
           << ",\"cycles\":" << odyn.cycles
           << ",\"issued\":" << odyn.issued << "}}";
    }
    os << "]}";
    return os.str();
}

std::string
readAll(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw CrispError("cannot open: " + path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Strip trailing whitespace/newlines for the comparison. */
std::string
trimmed(std::string s)
{
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                          s.back() == ' ')) {
        s.pop_back();
    }
    return s;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_COST.json";
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--out=", 0) == 0) {
            out_path = a.substr(6);
        } else if (a.rfind("--check=", 0) == 0) {
            check_path = a.substr(8);
        } else {
            std::fprintf(stderr,
                         "usage: bench_cost [--out=PATH | "
                         "--check=PATH]\n");
            return 2;
        }
    }

    try {
        bool ok = true;
        const std::string ledger = buildLedger(ok);
        if (!ok)
            return 1;
        if (!check_path.empty()) {
            const std::string want = trimmed(readAll(check_path));
            if (trimmed(ledger) != want) {
                std::fprintf(stderr,
                             "bench_cost: ledger drifted from %s\n"
                             "  committed: %s\n  current:   %s\n"
                             "regenerate with bench_cost --out=%s if "
                             "the change is intentional\n",
                             check_path.c_str(), want.c_str(),
                             ledger.c_str(), check_path.c_str());
                return 1;
            }
            std::printf("bench_cost check: ok (%s)\n",
                        check_path.c_str());
            return 0;
        }
        std::ofstream f(out_path, std::ios::binary);
        f << ledger << "\n";
        std::printf("bench_cost: wrote %s\n", out_path.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_cost: %s\n", e.what());
        return 1;
    }
}
