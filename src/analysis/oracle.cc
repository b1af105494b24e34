/**
 * @file
 * Static-vs-dynamic oracle implementation.
 */

#include "oracle.hh"

#include <sstream>

#include "session.hh"
#include "sim/cpu.hh"

namespace crisp::analysis
{

namespace
{

void
mismatch(std::vector<std::string>& out, Addr pc, const std::string& what)
{
    out.push_back(hexAddr(pc) + ": " + what);
}

} // namespace

std::string
OracleReport::toString() const
{
    if (!applicable)
        return "oracle: not applicable\n";
    if (ok())
        return "oracle: static and dynamic views agree\n";
    std::ostringstream os;
    os << "oracle: " << mismatches.size() << " static mismatch(es), "
       << costViolations.size() << " cost-bound violation(s), "
       << targetViolations.size() << " target-set violation(s)\n";
    for (const std::string& m : mismatches)
        os << "  " << m << "\n";
    for (const std::string& m : costViolations)
        os << "  [cost] " << m << "\n";
    for (const std::string& m : targetViolations)
        os << "  [target] " << m << "\n";
    return os.str();
}

OracleReport
crossCheck(const AnalysisResult& st, const SimStats& dyn,
           const SiteRecorder& rec)
{
    OracleReport r;
    // Error-level diagnostics mean the static model itself flagged the
    // program as out of contract (decode failures, wild targets, stack
    // underflow); none of the invariants are claimed there.
    if (st.hasErrors()) {
        r.applicable = false;
        return r;
    }

    // Invariant 8 preparation: a branch parcel may belong to several
    // issue points (mixed fold); a dynamic event does not say which
    // one it came through, so the enforced set is the union over the
    // branch's issue points, and enforcement requires every one of
    // them to have proved an enforceable set.
    struct BranchTargets
    {
        std::set<Addr> targets;
        bool enforceable = true;
    };
    std::map<Addr, BranchTargets> proven;
    for (const auto& [ip, ts] : st.targets.sites) {
        if (ts.kind != TargetSiteKind::kIndirectJump)
            continue;
        BranchTargets& b = proven[ts.branchPc];
        b.enforceable = b.enforceable && ts.enforceable;
        b.targets.insert(ts.targets.begin(), ts.targets.end());
    }

    std::uint64_t sum_total = 0;
    std::uint64_t sum_folded = 0;
    std::uint64_t sum_cond = 0;
    std::uint64_t sum_resolved = 0;
    std::uint64_t sum_delay = 0;
    std::uint64_t envelope_lo = 0;
    std::uint64_t envelope_hi = 0;

    for (const auto& [pc, c] : rec.sites) {
        sum_total += c.total;
        sum_folded += c.folded;
        sum_cond += c.cond;
        sum_resolved += c.resolvedAtIssue;
        sum_delay += c.delaySum;

        const auto it = st.sites.find(pc);
        if (it == st.sites.end()) {
            mismatch(r.mismatches, pc,
                     "branch executed at a pc the analyzer never "
                     "reached");
            continue;
        }
        const BranchSite& s = it->second;

        if (c.sawConditional && !s.conditional) {
            mismatch(r.mismatches, pc,
                     "executed as conditional, static site is "
                     "unconditional");
        }
        if (c.sawUnconditional && s.conditional) {
            mismatch(r.mismatches, pc,
                     "executed as unconditional, static site is "
                     "conditional");
        }
        if (c.shortForm != s.shortForm) {
            mismatch(r.mismatches, pc,
                     "short-form encoding bit disagrees with the "
                     "static decode");
        }
        if (c.sawConditional && c.predictTaken != s.predictTaken) {
            mismatch(r.mismatches, pc,
                     "prediction bit disagrees with the static decode");
        }

        switch (s.cls) {
          case FoldClass::kFolded:
            if (c.lone != 0) {
                mismatch(r.mismatches, pc,
                         "site classified always-folded issued alone " +
                             std::to_string(c.lone) + " time(s)");
            }
            break;
          case FoldClass::kLone:
            if (c.folded != 0) {
                mismatch(r.mismatches, pc,
                         "site classified never-folded issued folded " +
                             std::to_string(c.folded) + " time(s)");
            }
            break;
          case FoldClass::kMixed:
            break;
        }

        if (s.conditional && s.guaranteedResolved &&
            c.resolvedAtIssue != c.cond) {
            mismatch(r.mismatches, pc,
                     "spread-guaranteed branch speculated " +
                         std::to_string(c.cond - c.resolvedAtIssue) +
                         " of " + std::to_string(c.cond) +
                         " execution(s)");
        }

        // Invariant 7: the observed delays of every execution of this
        // site must fall inside its static cost interval, and a
        // constant-direction proof must never be contradicted.
        if (const SiteCost* cost = st.cost.find(pc)) {
            envelope_lo +=
                static_cast<std::uint64_t>(cost->bound.lo) * c.total;
            envelope_hi +=
                static_cast<std::uint64_t>(cost->bound.hi) * c.total;
            if (c.delayMax > cost->bound.hi) {
                mismatch(r.costViolations, pc,
                         "observed delay " +
                             std::to_string(c.delayMax) +
                             " cycle(s) exceeds the static bound [" +
                             std::to_string(cost->bound.lo) + ", " +
                             std::to_string(cost->bound.hi) + "]");
            }
            if (c.delayMin < cost->bound.lo) {
                mismatch(r.costViolations, pc,
                         "observed delay " +
                             std::to_string(c.delayMin) +
                             " cycle(s) undershoots the static bound [" +
                             std::to_string(cost->bound.lo) + ", " +
                             std::to_string(cost->bound.hi) + "]");
            }
            if (cost->constantDirection) {
                const std::uint64_t want =
                    cost->alwaysTaken ? c.total : 0;
                if (c.taken != want) {
                    mismatch(r.costViolations, pc,
                             "branch proven " +
                                 std::string(cost->alwaysTaken
                                                 ? "always"
                                                 : "never") +
                                 "-taken went the other way " +
                                 std::to_string(cost->alwaysTaken
                                                    ? c.total - c.taken
                                                    : c.taken) +
                                 " of " + std::to_string(c.total) +
                                 " time(s)");
                }
            }
        } else {
            mismatch(r.costViolations, pc,
                     "branch executed at a site with no static cost "
                     "bound");
        }

        if (s.indirect) {
            const auto jt = rec.jumpTargets.find(pc);
            if (jt != rec.jumpTargets.end()) {
                for (const Addr t : jt->second) {
                    if (st.cfg->indirectTargets().count(t) == 0) {
                        mismatch(r.mismatches, pc,
                                 "indirect jump reached " + hexAddr(t) +
                                     ", not in the static candidate "
                                     "set");
                    }
                }
                // Invariant 8: when every issue point covering this
                // branch proved an enforceable set, each dynamic
                // target must be a member of the union.
                const auto pv = proven.find(pc);
                if (pv != proven.end() && pv->second.enforceable) {
                    for (const Addr t : jt->second) {
                        if (pv->second.targets.count(t) == 0) {
                            mismatch(r.targetViolations, pc,
                                     "indirect jump reached " +
                                         hexAddr(t) +
                                         ", outside its proven " +
                                         std::to_string(
                                             pv->second.targets
                                                 .size()) +
                                         "-element target set");
                        }
                    }
                }
            }
        }
    }

    // Aggregate reconciliation: the recorder saw every retired branch,
    // so its sums must equal the simulator's own counters exactly.
    if (sum_total != dyn.branches) {
        mismatch(r.mismatches, 0,
                 "event branch count " + std::to_string(sum_total) +
                     " != stats.branches " +
                     std::to_string(dyn.branches));
    }
    if (sum_folded != dyn.foldedBranches) {
        mismatch(r.mismatches, 0,
                 "event folded count " + std::to_string(sum_folded) +
                     " != stats.foldedBranches " +
                     std::to_string(dyn.foldedBranches));
    }
    if (sum_cond != dyn.condBranches) {
        mismatch(r.mismatches, 0,
                 "event conditional count " + std::to_string(sum_cond) +
                     " != stats.condBranches " +
                     std::to_string(dyn.condBranches));
    }
    if (sum_resolved != dyn.resolvedAtIssue) {
        mismatch(r.mismatches, 0,
                 "event resolved-at-issue count " +
                     std::to_string(sum_resolved) +
                     " != stats.resolvedAtIssue " +
                     std::to_string(dyn.resolvedAtIssue));
    }
    if (dyn.resolvedAtIssue + dyn.speculated != dyn.condBranches) {
        mismatch(r.mismatches, 0,
                 "resolvedAtIssue + speculated != condBranches");
    }

    // Invariant 7, aggregates: the recorder's delay total must equal
    // the simulator's counter exactly, and both must sit inside the
    // whole-program envelope the static bounds imply.
    if (sum_delay != dyn.branchDelayCycles) {
        mismatch(r.costViolations, 0,
                 "event delay total " + std::to_string(sum_delay) +
                     " != stats.branchDelayCycles " +
                     std::to_string(dyn.branchDelayCycles));
    }
    if (dyn.branchDelayCycles < envelope_lo ||
        dyn.branchDelayCycles > envelope_hi) {
        mismatch(r.costViolations, 0,
                 "branchDelayCycles " +
                     std::to_string(dyn.branchDelayCycles) +
                     " escapes the static envelope [" +
                     std::to_string(envelope_lo) + ", " +
                     std::to_string(envelope_hi) + "]");
    }
    return r;
}

OracleReport
runStaticOracle(const Program& prog, const SimConfig& cfg)
{
    AnalysisOptions opt;
    opt.policy = cfg.foldPolicy;
    opt.stackCacheWords = cfg.stackCacheWords;
    opt.costPredict = predictSourceFor(cfg);
    // Only what crossCheck reads: the errors, the sites and their
    // bounds, the CFG's candidate set, and per-site target sets, which
    // it reads only at indirect jumps. No lint rule runs, so the
    // prediction-bit convention does not matter.
    AnalysisSession s(prog, opt);
    AnalysisResult st;
    st.cfg = s.sharedCfg();
    st.diags = s.errors();
    st.sites = s.sites();
    st.cost = s.cost();
    if (st.cfg->hasIndirect())
        st.targets = s.targets();

    SiteRecorder rec;
    CrispCpu cpu(prog, cfg);
    const SimStats& dyn = cpu.run(&rec);
    if (dyn.faulted || dyn.timedOut) {
        OracleReport r;
        r.applicable = false;
        return r;
    }
    return crossCheck(st, dyn, rec);
}

} // namespace crisp::analysis
