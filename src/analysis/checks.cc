/**
 * @file
 * Diagnostic generation and report serialization.
 */

#include "checks.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "session.hh"
#include "util/json.hh"

namespace crisp::analysis
{

std::string_view
severityName(Severity s)
{
    switch (s) {
      case Severity::kInfo:
        return "info";
      case Severity::kWarning:
        return "warning";
      case Severity::kError:
        return "error";
    }
    return "?";
}

std::string
Diagnostic::toString() const
{
    std::ostringstream os;
    os << severityName(severity) << " [" << rule << "] 0x" << std::hex
       << pc << std::dec << ": " << message;
    if (!hint.empty())
        os << " (hint: " << hint << ")";
    return os.str();
}

bool
AnalysisResult::hasErrors() const
{
    return count(Severity::kError) > 0;
}

bool
AnalysisResult::hasWarnings() const
{
    return count(Severity::kWarning) > 0;
}

int
AnalysisResult::count(Severity s) const
{
    int n = 0;
    for (const Diagnostic& d : diags)
        n += d.severity == s ? 1 : 0;
    return n;
}

namespace
{

void
emit(std::vector<Diagnostic>& out, Severity sev, Addr pc,
     std::string rule, std::string message, std::string hint = {})
{
    Diagnostic d;
    d.severity = sev;
    d.pc = pc;
    d.rule = std::move(rule);
    d.message = std::move(message);
    d.hint = std::move(hint);
    out.push_back(std::move(d));
}

void
checkCfg(const Cfg& cfg, std::vector<Diagnostic>& diags)
{
    for (const auto& [pc, what] : cfg.decodeErrors()) {
        emit(diags, Severity::kError, pc, "cfg.decode-error", what);
    }
    for (const auto& [pc, target] : cfg.badTargets()) {
        emit(diags, Severity::kError, pc, "cfg.bad-target",
             "branch target " + hexAddr(target) +
                 " is outside the text segment or unaligned");
    }
    if (cfg.hasIndirect() && cfg.indirectTargets().empty()) {
        emit(diags, Severity::kError, cfg.program().entry,
             "cfg.indirect-no-table",
             "program contains an indirect jump but no data word names "
             "a text address",
             "emit a .table of case labels for the dispatch");
    }
    for (const auto& [lo, hi] : cfg.unreachableRanges()) {
        std::ostringstream msg;
        msg << (hi - lo) / kParcelBytes << " unreachable parcel(s) at ["
            << hexAddr(lo) << ", " << hexAddr(hi) << ")";
        emit(diags, Severity::kWarning, lo, "cfg.unreachable", msg.str(),
             "dead code wastes DIC reach; let the peephole pass drop it");
    }
    // Structural ISA invariant: the condition flag is written only by
    // compares. The decoder derives writesCc from isCompare, so this
    // can only fire if the decode layer itself regresses — which is
    // exactly why the oracle keeps it.
    for (const auto& [pc, n] : cfg.nodes()) {
        if (n.di.totalParcels > 0 && !n.di.loneBranch &&
            n.di.writesCc != isCompare(n.di.body.op)) {
            emit(diags, Severity::kError, pc, "cc.writer-not-compare",
                 "modifies-CC bit disagrees with the opcode class");
        }
    }
}

void
checkSpread(const Cfg& cfg, const std::map<Addr, SpreadInfo>& spread,
            std::vector<Diagnostic>& diags)
{
    for (const auto& [pc, s] : spread) {
        if (!s.guaranteedResolved) {
            std::ostringstream msg;
            msg << "conditional branch at " << hexAddr(s.branchPc)
                << " has only " << s.issueSlots
                << " issue slot(s) from its compare (needs "
                << kResolveSlots << "); it may speculate";
            emit(diags, Severity::kWarning, s.branchPc, "spread.short",
                 msg.str(),
                 "move independent instructions between the compare and "
                 "the branch (Branch Spreading)");
        }
        if (s.compareMayBeMissing && !cfg.node(pc).di.writesCc) {
            emit(diags, Severity::kWarning, s.branchPc,
                 "cc.maybe-missing-compare",
                 "a path reaches this conditional branch with no compare "
                 "executed; it tests the power-on flag",
                 "insert a compare that dominates the branch");
        }
    }
}

void
checkPredict(const std::map<Addr, BranchSite>& sites,
             PredictConvention mode, std::vector<Diagnostic>& diags)
{
    if (mode == PredictConvention::kNone)
        return;
    for (const auto& [pc, s] : sites) {
        if (!s.conditional || s.indirect)
            continue;
        const bool backward = s.takenPc < s.branchPc;
        if (mode == PredictConvention::kAllNotTaken) {
            if (s.predictTaken) {
                emit(diags, Severity::kWarning, pc,
                     "predict.backward-not-taken",
                     "prediction bit set under the all-not-taken "
                     "convention");
            }
            continue;
        }
        if (backward && !s.predictTaken) {
            emit(diags, Severity::kWarning, pc,
                 "predict.backward-not-taken",
                 "backward (loop) branch predicted not-taken",
                 "loop back-edges are overwhelmingly taken (Table 1); "
                 "set the bit");
        } else if (!backward && s.predictTaken) {
            emit(diags, Severity::kWarning, pc, "predict.forward-taken",
                 "forward branch predicted taken against the heuristic",
                 "forward branches default to not-taken unless profiled");
        }
    }
}

void
checkFold(const std::map<Addr, BranchSite>& sites,
          std::vector<Diagnostic>& diags)
{
    for (const auto& [pc, s] : sites) {
        if (s.cls == FoldClass::kLone &&
            s.reason != NoFoldReason::kNone) {
            emit(diags, Severity::kInfo, pc, "fold.lone-branch",
                 std::string(opcodeName(s.op)) +
                     " occupies its own EU slot: " +
                     std::string(noFoldReasonName(s.reason)));
        } else if (s.cls == FoldClass::kMixed) {
            emit(diags, Severity::kInfo, pc, "fold.mixed",
                 "branch folds on fall-in but is also a direct entry "
                 "point");
        }
    }
}

void
checkStack(const std::vector<StackIssue>& issues, int window,
           std::vector<Diagnostic>& diags)
{
    for (const StackIssue& i : issues) {
        std::ostringstream msg;
        if (i.negative) {
            msg << "stack operand sp[" << i.slot
                << "] addresses below the frame";
            emit(diags, Severity::kError, i.pc, "stack.negative-slot",
                 msg.str());
        } else {
            msg << "stack operand sp[" << i.slot << "] is outside the "
                << window << "-word stack-cache window";
            emit(diags, Severity::kWarning, i.pc, "stack.outside-window",
                 msg.str(),
                 "every access misses the stack cache; shrink the frame "
                 "or raise SimConfig::stackCacheWords");
        }
    }
}

void
checkCost(const Cfg& cfg, const std::map<Addr, BranchSite>& sites,
          const CostSummary& cost, const AbsIntResult& ai,
          std::vector<Diagnostic>& diags)
{
    const std::set<Addr> dead = deadAfterConstantPruning(cfg, ai);
    for (const auto& [pc, c] : cost.sites) {
        if (!c.constantDirection)
            continue;
        std::ostringstream msg;
        msg << "condition provably constant: branch "
            << (c.alwaysTaken ? "always" : "never") << " taken"
            << " (delay bound [" << c.bound.lo << ", " << c.bound.hi
            << "] cycle(s))";
        emit(diags, Severity::kInfo, pc, "cost.constant-cc", msg.str(),
             c.predictionProvablyCorrect
                 ? ""
                 : "the prediction bit fights a constant condition; "
                   "flip it (or drop the branch)");

        // The pruned edge: does any issue point still reach it?
        const auto st = sites.find(pc);
        if (st == sites.end())
            continue;
        Addr dead_tgt = 0;
        bool have_tgt = false;
        const Addr ip = st->second.cls == FoldClass::kLone
                            ? st->second.branchPc
                            : st->second.carrierPc;
        if (cfg.has(ip)) {
            const DecodedInst& di = cfg.node(ip).di;
            dead_tgt = c.alwaysTaken ? di.seqPc : di.takenPc;
            have_tgt = true;
        }
        if (have_tgt && dead.count(dead_tgt) != 0) {
            std::ostringstream dm;
            dm << "the " << (c.alwaysTaken ? "fall-through" : "target")
               << " at " << hexAddr(dead_tgt)
               << " is unreachable once the constant branch is pruned";
            emit(diags, Severity::kInfo, pc, "cost.dead-branch",
                 dm.str(), "delete the dead path; it wastes DIC reach");
        }
    }
}

void
checkDataflow(const Cfg& cfg, const SccpResult& sc,
              const LivenessResult& live, const ReachDefsResult& rd,
              const AbsIntResult& ai, std::vector<Diagnostic>& diags)
{
    for (const DeadStore& d : live.dead) {
        switch (d.kind) {
          case DeadKind::kMemStore:
            emit(diags, Severity::kInfo, d.pc, "dataflow.dead-store",
                 "store to " + hexAddr(d.addr) +
                     " is dead: no path observes the value",
                 "delete the store; crispcc -O does");
            break;
          case DeadKind::kAccumDef:
            emit(diags, Severity::kInfo, d.pc, "dataflow.dead-store",
                 "accumulator definition is dead: overwritten before "
                 "any read");
            break;
          case DeadKind::kCompare:
            emit(diags, Severity::kInfo, d.pc, "dataflow.dead-store",
                 "compare is dead: no branch reads the flag it sets",
                 "drop it, or spread a later compare into its slot");
            break;
        }
    }

    for (const RedundantCopy& c :
         findRedundantCopies(cfg, rd, sc.state)) {
        emit(diags, Severity::kInfo, c.pc, "dataflow.redundant-copy",
             "copy is a no-op: the destination already holds the "
             "source value (established at " +
                 hexAddr(c.defPc) + ")",
             "delete the copy");
    }

    // Issue points the edge-pruned fixpoint proves never execute, as
    // contiguous runs. Plain absint cannot prune these (they decode
    // and have structural predecessors); only a constant branch
    // direction removes them.
    Addr run_lo = 0;
    Addr run_end = 0;
    int run_n = 0;
    const auto flush = [&]() {
        if (run_n == 0)
            return;
        std::ostringstream msg;
        msg << run_n << " issue point(s) at [" << hexAddr(run_lo) << ", "
            << hexAddr(run_end) << ") cannot execute once constant "
            << "branches are pruned";
        emit(diags, Severity::kInfo, run_lo,
             "dataflow.unreachable-after-constant-branch", msg.str(),
             "dead arms waste DIC reach; crispcc -O deletes them");
        run_n = 0;
    };
    for (const auto& [pc, n] : cfg.nodes()) {
        const bool dead = sc.executable.count(pc) == 0 &&
                          ai.inAt(pc).reachable && n.di.totalParcels > 0;
        if (!dead) {
            flush();
            continue;
        }
        const Addr end =
            pc + static_cast<Addr>(n.di.totalParcels) * kParcelBytes;
        if (run_n > 0 && pc == run_end) {
            run_end = end;
            ++run_n;
        } else {
            flush();
            run_lo = pc;
            run_end = end;
            run_n = 1;
        }
    }
    flush();
}

void
checkTargets(const CallGraph& cg, const TargetsResult& tr,
             std::vector<Diagnostic>& diags)
{
    for (const auto& [pc, s] : tr.sites) {
        if (s.kind != TargetSiteKind::kIndirectJump)
            continue; // returns: call-graph matched, reported in JSON
        if (!s.resolved) {
            std::ostringstream msg;
            msg << "indirect branch target set not proven; assuming "
                   "all "
                << s.targets.size() << " candidate text word(s)";
            emit(diags, Severity::kInfo, pc,
                 "indirect.unresolved-target", msg.str(),
                 "keep the jump table in unwritten data and the range "
                 "guard adjacent to its dispatch so the value-set "
                 "lattice can bound the table index");
        } else if (s.invalidTargets > 0) {
            std::ostringstream msg;
            msg << s.invalidTargets << " of "
                << (s.targets.size() + s.invalidTargets)
                << " proven target word(s) are not valid text "
                   "addresses; selecting one faults at the target "
                   "fetch";
            emit(diags, Severity::kWarning, pc,
                 "indirect.out-of-table", msg.str(),
                 "the table index range guard admits slots past the "
                 "table (or the table holds non-code words); tighten "
                 "the guard");
        }
    }
    for (const CgFunction* f : cg.unreachableFunctions()) {
        std::ostringstream msg;
        msg << "function "
            << (f->name.empty() ? hexAddr(f->entry) : f->name)
            << " is called from " << f->callers.size()
            << " site(s) but never reachable from the entry";
        emit(diags, Severity::kInfo, f->entry,
             "callgraph.unreachable-function", msg.str(),
             "every call to it sits in dead code; drop both");
    }
}

/**
 * Deterministic report order: (site pc, rule id). Tools diff the
 * JSON/SARIF output against goldens, so ties must not depend on
 * emission order.
 */
void
sortForReport(std::vector<Diagnostic>& diags)
{
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         return a.pc != b.pc ? a.pc < b.pc
                                             : a.rule < b.rule;
                     });
}

} // namespace

std::vector<Diagnostic>
errorDiagnostics(const Cfg& cfg, int stackCacheWords)
{
    std::vector<Diagnostic> found;
    checkCfg(cfg, found);
    checkStack(analyzeStackWindow(cfg, stackCacheWords), stackCacheWords,
               found);
    std::vector<Diagnostic> errors;
    for (Diagnostic& d : found) {
        if (d.severity == Severity::kError)
            errors.push_back(std::move(d));
    }
    sortForReport(errors);
    return errors;
}

std::vector<Diagnostic>
diagnose(AnalysisSession& s)
{
    const Cfg& cfg = s.cfg();
    const AnalysisOptions& opt = s.options();
    std::vector<Diagnostic> diags;
    checkCfg(cfg, diags);
    checkSpread(cfg, s.spread(), diags);
    checkPredict(s.sites(), opt.predict, diags);
    if (opt.foldInfo)
        checkFold(s.sites(), diags);
    checkStack(analyzeStackWindow(cfg, opt.stackCacheWords),
               opt.stackCacheWords, diags);
    checkCost(cfg, s.sites(), s.cost(), s.sccp().state, diags);
    checkDataflow(cfg, s.sccp(), s.liveness(), s.reachdefs(), s.absint(),
                  diags);
    checkTargets(s.callgraph(), s.targets(), diags);
    sortForReport(diags);
    return diags;
}

std::string
AnalysisResult::toString() const
{
    std::ostringstream os;
    os << "analysis: " << staticEntries << " issue points, "
       << staticBranchSites << " branch sites (" << staticCondSites
       << " conditional, " << staticFoldedSites << " folding, "
       << staticGuaranteedCondSites << " spread-guaranteed), "
       << count(Severity::kError) << " errors, "
       << count(Severity::kWarning) << " warnings, "
       << count(Severity::kInfo) << " notes\n";
    os << "cost: max " << cost.maxDelayPerSite
       << " delay cycle(s) per site, " << cost.zeroDelaySites
       << " provably free, " << cost.constantSites
       << " constant (predict " << predictSourceName(cost.predict)
       << ")\n";
    if (!targets.sites.empty()) {
        os << "targets: " << targets.sites.size()
           << " indirect/return site(s), " << targets.resolvedCount()
           << " resolved, " << targets.singletonCount()
           << " singleton\n";
    }
    for (const Diagnostic& d : diags)
        os << "  " << d.toString() << "\n";
    return os.str();
}

std::string
AnalysisResult::toJson() const
{
    std::ostringstream os;
    os << "{";
    // Versioned: bump when fields change shape or meaning, so report
    // consumers can reject output they were not written against.
    os << "\"schema\":\"crisp-analysis/2\"";
    os << ",\"staticEntries\":" << staticEntries;
    os << ",\"staticBranchSites\":" << staticBranchSites;
    os << ",\"staticCondSites\":" << staticCondSites;
    os << ",\"staticFoldedSites\":" << staticFoldedSites;
    os << ",\"staticLoneSites\":" << staticLoneSites;
    os << ",\"staticGuaranteedCondSites\":" << staticGuaranteedCondSites;
    os << ",\"errors\":" << count(Severity::kError);
    os << ",\"warnings\":" << count(Severity::kWarning);
    os << ",\"notes\":" << count(Severity::kInfo);

    int df_dead = 0, df_copies = 0, df_unreach = 0;
    for (const Diagnostic& d : diags) {
        if (d.rule == "dataflow.dead-store")
            ++df_dead;
        else if (d.rule == "dataflow.redundant-copy")
            ++df_copies;
        else if (d.rule == "dataflow.unreachable-after-constant-branch")
            ++df_unreach;
    }
    os << ",\"dataflow\":{";
    os << "\"deadStores\":" << df_dead;
    os << ",\"redundantCopies\":" << df_copies;
    os << ",\"unreachableRuns\":" << df_unreach;
    os << ",\"sccpExecutable\":" << sccp.executable.size();
    os << ",\"sccpProvenDirections\":" << sccp.provenDirection.size();
    os << ",\"sccpConverged\":"
       << (sccp.state.converged ? "true" : "false");
    os << ",\"livenessConverged\":" << (live.converged ? "true" : "false");
    os << ",\"reachdefsConverged\":"
       << (reachdefs.converged ? "true" : "false");
    os << "}";

    os << ",\"targets\":{";
    os << "\"converged\":" << (targets.converged ? "true" : "false");
    os << ",\"allMutable\":" << (targets.allMutable ? "true" : "false");
    os << ",\"resolved\":" << targets.resolvedCount();
    os << ",\"singleton\":" << targets.singletonCount();
    os << ",\"sites\":[";
    bool tfirst = true;
    for (const auto& [pc, s] : targets.sites) {
        if (!tfirst)
            os << ",";
        tfirst = false;
        os << "{\"pc\":" << pc << ",\"branchPc\":" << s.branchPc
           << ",\"kind\":\""
           << (s.kind == TargetSiteKind::kIndirectJump ? "indirect"
                                                       : "return")
           << "\",\"resolved\":" << (s.resolved ? "true" : "false")
           << ",\"enforceable\":" << (s.enforceable ? "true" : "false")
           << ",\"fromReturnMatch\":"
           << (s.fromReturnMatch ? "true" : "false")
           << ",\"invalidTargets\":" << s.invalidTargets
           << ",\"targets\":[";
        bool vfirst = true;
        for (const Addr t : s.targets) {
            if (!vfirst)
                os << ",";
            vfirst = false;
            os << t;
        }
        os << "]}";
    }
    os << "]}";

    os << ",\"callgraph\":{";
    if (callgraph) {
        os << "\"functions\":" << callgraph->functions().size();
        std::size_t cg_reach = 0;
        for (const auto& [entry, f] : callgraph->functions())
            cg_reach += f.reachable ? 1u : 0u;
        os << ",\"reachableFunctions\":" << cg_reach;
        os << ",\"callSites\":" << callgraph->sites().size();
        os << ",\"returnSites\":" << callgraph->allReturnSites().size();
    } else {
        os << "\"functions\":0,\"reachableFunctions\":0"
           << ",\"callSites\":0,\"returnSites\":0";
    }
    os << "}";

    os << ",\"sites\":[";
    bool first = true;
    for (const auto& [pc, s] : sites) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"pc\":" << pc << ",\"op\":\"" << opcodeName(s.op)
           << "\",\"conditional\":" << (s.conditional ? "true" : "false")
           << ",\"predictTaken\":" << (s.predictTaken ? "true" : "false")
           << ",\"shortForm\":" << (s.shortForm ? "true" : "false")
           << ",\"indirect\":" << (s.indirect ? "true" : "false")
           << ",\"fold\":\""
           << (s.cls == FoldClass::kFolded
                   ? "folded"
                   : s.cls == FoldClass::kLone ? "lone" : "mixed")
           << "\",\"noFoldReason\":\""
           << util::jsonEscape(std::string(noFoldReasonName(s.reason)))
           << "\",\"guaranteedResolved\":"
           << (s.guaranteedResolved ? "true" : "false") << "}";
    }
    os << "]";

    os << ",\"spread\":[";
    first = true;
    for (const auto& [pc, s] : spread) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"entryPc\":" << pc << ",\"branchPc\":" << s.branchPc
           << ",\"issueSlots\":" << s.issueSlots
           << ",\"guaranteedResolved\":"
           << (s.guaranteedResolved ? "true" : "false") << "}";
    }
    os << "]";

    os << ",\"cost\":{";
    os << "\"predict\":\"" << predictSourceName(cost.predict) << "\"";
    os << ",\"absintConverged\":"
       << (cost.absintConverged ? "true" : "false");
    os << ",\"constantSites\":" << cost.constantSites;
    os << ",\"zeroDelaySites\":" << cost.zeroDelaySites;
    os << ",\"maxDelayPerSite\":" << cost.maxDelayPerSite;
    os << ",\"sites\":[";
    first = true;
    for (const auto& [pc, c] : cost.sites) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"pc\":" << pc << ",\"lo\":" << c.bound.lo
           << ",\"hi\":" << c.bound.hi
           << ",\"minSpreadSlots\":" << c.minSpreadSlots
           << ",\"constant\":"
           << (c.constantDirection ? "true" : "false")
           << ",\"alwaysTaken\":" << (c.alwaysTaken ? "true" : "false")
           << ",\"predictionProvablyCorrect\":"
           << (c.predictionProvablyCorrect ? "true" : "false");
        if (c.indirect) {
            os << ",\"targetResolved\":"
               << (c.targetResolved ? "true" : "false")
               << ",\"targetCount\":" << c.targetCount
               << ",\"targetSingleton\":"
               << (c.targetSingleton ? "true" : "false");
        }
        os << "}";
    }
    os << "]}";

    os << ",\"diagnostics\":[";
    first = true;
    for (const Diagnostic& d : diags) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"severity\":\"" << severityName(d.severity)
           << "\",\"pc\":" << d.pc << ",\"rule\":\""
           << util::jsonEscape(d.rule) << "\",\"message\":\""
           << util::jsonEscape(d.message) << "\",\"hint\":\""
           << util::jsonEscape(d.hint) << "\"}";
    }
    os << "]}";
    return os.str();
}

std::string
AnalysisResult::costTableText() const
{
    std::ostringstream os;
    os << "cost: static per-site delay bounds (predict "
       << predictSourceName(cost.predict) << ", absint "
       << (cost.absintConverged ? "converged" : "bailed to top") << ")\n";
    os << "  branch pc   kind          spread  bound   notes\n";
    for (const auto& [pc, c] : cost.sites) {
        std::ostringstream kind;
        const auto it = sites.find(pc);
        if (c.indirect) {
            kind << "indirect";
        } else if (!c.conditional) {
            kind << "jump";
        } else {
            kind << "cond/"
                 << (it != sites.end() &&
                             it->second.cls == FoldClass::kFolded
                         ? "folded"
                         : it != sites.end() &&
                                   it->second.cls == FoldClass::kLone
                               ? "lone"
                               : "mixed");
        }
        std::ostringstream spread_s;
        if (c.conditional && !c.indirect)
            spread_s << c.minSpreadSlots;
        else
            spread_s << "-";

        std::ostringstream notes;
        if (c.bound.lo == 0 && c.bound.hi == 0)
            notes << "free";
        if (c.indirect) {
            notes << (notes.str().empty() ? "" : ", ");
            if (c.targetSingleton)
                notes << "1 proven target (devirtualizable)";
            else if (c.targetResolved)
                notes << c.targetCount << " proven targets";
            else
                notes << c.targetCount << " candidate targets";
        }
        if (c.constantDirection) {
            notes << (notes.str().empty() ? "" : ", ")
                  << (c.alwaysTaken ? "always-taken" : "never-taken");
            if (!c.predictionProvablyCorrect)
                notes << " (prediction fights it)";
        }

        char line[128];
        std::snprintf(line, sizeof line,
                      "  0x%08x  %-12s  %-6s  [%d,%d]   %s\n", pc,
                      kind.str().c_str(), spread_s.str().c_str(),
                      c.bound.lo, c.bound.hi, notes.str().c_str());
        os << line;
    }
    os << "  whole-program envelope: [" << cost.sites.size()
       << " site(s)] max " << cost.maxDelayPerSite
       << " delay cycle(s) per execution, " << cost.zeroDelaySites
       << " provably free, " << cost.constantSites << " constant\n";
    return os.str();
}

std::string
AnalysisResult::targetsTableText() const
{
    std::ostringstream os;
    os << "targets: indirect/return target sets ("
       << (targets.converged ? "converged" : "bailed to top")
       << (targets.allMutable ? ", image fully mutable" : "") << ")\n";
    os << "  site pc     kind      verdict     targets\n";
    for (const auto& [pc, s] : targets.sites) {
        const char* kind =
            s.kind == TargetSiteKind::kIndirectJump ? "indirect"
                                                    : "return";
        const char* verdict = s.singleton()
                                  ? "singleton"
                                  : s.resolved ? "resolved" : "top";
        std::ostringstream tl;
        std::size_t shown = 0;
        for (const Addr t : s.targets) {
            if (shown == 4) {
                tl << " ... (" << s.targets.size() << " total)";
                break;
            }
            tl << (shown ? " " : "") << hexAddr(t);
            ++shown;
        }
        if (s.invalidTargets)
            tl << " (+" << s.invalidTargets << " out of table)";
        if (s.fromReturnMatch)
            tl << " [call-graph matched; not enforced]";
        char line[256];
        std::snprintf(line, sizeof line, "  0x%08x  %-8s  %-9s   %s\n",
                      pc, kind, verdict, tl.str().c_str());
        os << line;
    }
    os << "  " << targets.sites.size() << " site(s), "
       << targets.resolvedCount() << " resolved, "
       << targets.singletonCount() << " singleton\n";
    if (callgraph) {
        std::size_t reach = 0;
        for (const auto& [entry, f] : callgraph->functions())
            reach += f.reachable ? 1u : 0u;
        os << "  callgraph: " << callgraph->functions().size()
           << " function(s) (" << reach << " reachable), "
           << callgraph->sites().size() << " call site(s), "
           << callgraph->allReturnSites().size()
           << " return site(s)\n";
    }
    return os.str();
}

std::string
AnalysisResult::toSarif(const std::string& artifactUri) const
{
    // Rule metadata for every rule that actually fired, in first-seen
    // order; results reference them by array index.
    std::vector<std::string> rules;
    auto ruleIndex = [&](const std::string& rule) -> std::size_t {
        for (std::size_t i = 0; i < rules.size(); ++i) {
            if (rules[i] == rule)
                return i;
        }
        rules.push_back(rule);
        return rules.size() - 1;
    };
    for (const Diagnostic& d : diags)
        ruleIndex(d.rule);

    auto level = [](Severity s) -> const char* {
        switch (s) {
          case Severity::kError:
            return "error";
          case Severity::kWarning:
            return "warning";
          case Severity::kInfo:
            return "note";
        }
        return "none";
    };

    std::ostringstream os;
    os << "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
          "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\"";
    os << ",\"version\":\"2.1.0\"";
    os << ",\"runs\":[{";
    os << "\"tool\":{\"driver\":{\"name\":\"crisplint\"";
    os << ",\"informationUri\":\"docs/ANALYSIS.md\"";
    os << ",\"rules\":[";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (i != 0)
            os << ",";
        os << "{\"id\":\"" << util::jsonEscape(rules[i]) << "\"}";
    }
    os << "]}}";
    os << ",\"artifacts\":[{\"location\":{\"uri\":\""
       << util::jsonEscape(artifactUri) << "\"}}]";
    os << ",\"results\":[";
    bool first = true;
    for (const Diagnostic& d : diags) {
        if (!first)
            os << ",";
        first = false;
        std::string text = d.message;
        if (!d.hint.empty())
            text += " (hint: " + d.hint + ")";
        os << "{\"ruleId\":\"" << util::jsonEscape(d.rule) << "\""
           << ",\"ruleIndex\":" << ruleIndex(d.rule) << ",\"level\":\""
           << level(d.severity) << "\""
           << ",\"message\":{\"text\":\"" << util::jsonEscape(text)
           << "\"}"
           << ",\"locations\":[{\"physicalLocation\":{"
           << "\"artifactLocation\":{\"uri\":\""
           << util::jsonEscape(artifactUri) << "\",\"index\":0}"
           << ",\"region\":{\"byteOffset\":" << d.pc
           << ",\"byteLength\":" << kParcelBytes << "}}}]}";
    }
    os << "]}]}";
    return os.str();
}

} // namespace crisp::analysis
