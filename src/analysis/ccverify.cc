/**
 * @file
 * Post-codegen self-check implementation.
 */

#include "ccverify.hh"

#include <sstream>

namespace crisp::analysis
{

namespace
{

/** One instruction of the binary's linear (fold-free) decode. */
struct BinInst
{
    Addr pc = 0;
    Instruction inst;
    int len = 0;
};

/**
 * Decode the text segment start to end, one instruction at a time.
 * Compiler output always decodes; a failure here is itself a finding.
 */
bool
linearDecode(const Program& prog, std::vector<BinInst>& out,
             std::vector<std::string>& problems)
{
    Addr pc = prog.textBase;
    const Addr end = prog.textEnd();
    while (pc < end) {
        const int len = instructionLength(prog.parcelAt(pc));
        if (pc + static_cast<Addr>(len) * kParcelBytes > end) {
            problems.push_back(hexAddr(pc) +
                               ": instruction runs past end of text");
            return false;
        }
        BinInst b;
        b.pc = pc;
        b.len = len;
        b.inst = prog.fetch(pc);
        out.push_back(b);
        pc += static_cast<Addr>(len) * kParcelBytes;
    }
    return true;
}

/** Local restatement of the PDU's carrier-length rule (decoded.cc keeps
 *  its own copy; the point of --verify is two independent derivations). */
bool
carrierOk(FoldPolicy policy, int parcels)
{
    switch (policy) {
      case FoldPolicy::kNone:
        return false;
      case FoldPolicy::kCrisp:
        return parcels == 1 || parcels == 3;
      case FoldPolicy::kAll:
        return true;
    }
    return false;
}

} // namespace

std::string
VerifyReport::toString() const
{
    std::ostringstream os;
    if (!applicable) {
        os << "verify: not applicable (delay-slot baseline build)\n";
        return os.str();
    }
    os << "verify: " << (ok() ? "OK" : "FAILED") << " — "
       << claimedSpread << " spread claim(s), " << confirmedSpread
       << " confirmed, " << costZeroBound << " cost-free, "
       << analysis.staticBranchSites << " branch sites, "
       << analysis.count(Severity::kError) << " analyzer errors\n";
    for (const std::string& p : problems)
        os << "  " << p << "\n";
    return os.str();
}

VerifyReport
verifyCompile(const cc::CompileResult& res,
              const cc::CompileOptions& opts, FoldPolicy policy)
{
    VerifyReport r;
    if (opts.delaySlots || opts.annulSlots) {
        r.applicable = false;
        return r;
    }

    AnalysisOptions aopt;
    aopt.policy = policy;
    aopt.predict = opts.predict == cc::PredictMode::kAllNotTaken
                       ? PredictConvention::kAllNotTaken
                       : PredictConvention::kHeuristic;
    aopt.foldInfo = false;
    r.analysis = analyzeProgram(res.program, aopt);

    // Analyzer errors are always compiler bugs; prediction-convention
    // and missing-compare warnings are too, because crispcc controls
    // both ends. (spread.short is expected: not every branch can be
    // spread, and the pass says so by not claiming it.)
    for (const Diagnostic& d : r.analysis.diags) {
        if (d.severity == Severity::kError ||
            d.rule.rfind("predict.", 0) == 0 ||
            d.rule == "cc.maybe-missing-compare") {
            r.problems.push_back(d.toString());
        }
    }

    std::vector<BinInst> bin;
    if (!linearDecode(res.program, bin, r.problems))
        return r;

    // Pair CodeList instruction items with the linear decode, in order.
    std::vector<const cc::CodeItem*> items;
    for (const cc::CodeItem& c : res.code) {
        if (c.kind != cc::CodeItem::Kind::kLabel)
            items.push_back(&c);
    }
    if (items.size() != bin.size()) {
        r.problems.push_back(
            "linker emitted " + std::to_string(bin.size()) +
            " instructions for " + std::to_string(items.size()) +
            " code items");
        return r;
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i]->inst.op != bin[i].inst.op) {
            r.problems.push_back(
                hexAddr(bin[i].pc) + ": code item " + std::to_string(i) +
                " is " + std::string(opcodeName(items[i]->inst.op)) +
                " but the binary decodes " +
                std::string(opcodeName(bin[i].inst.op)));
            return r;
        }
    }

    // Audit the Branch Spreading claims.
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!items[i]->spreadClaim)
            continue;
        ++r.claimedSpread;
        const Addr pc = bin[i].pc;
        const auto it = r.analysis.sites.find(pc);
        if (it == r.analysis.sites.end())
            continue; // unreachable after later passes: nothing claimed
        if (!it->second.conditional) {
            r.problems.push_back(hexAddr(pc) +
                                 ": spread claim on a branch the "
                                 "analyzer sees as unconditional");
            continue;
        }
        if (!it->second.guaranteedResolved) {
            r.problems.push_back(
                hexAddr(pc) +
                ": passSpread claims full spread but the analyzer "
                "finds a path with too little separation");
            continue;
        }
        ++r.confirmedSpread;

        // Cost audit: a confirmed full spread means the branch resolves
        // at issue on every path, so the cost engine must agree by
        // collapsing its static delay interval to [0, 0].
        const SiteCost* c = r.analysis.cost.find(pc);
        if (c == nullptr) {
            r.problems.push_back(hexAddr(pc) +
                                 ": spread-confirmed branch has no "
                                 "static cost bound");
            continue;
        }
        if (c->bound.lo != 0 || c->bound.hi != 0) {
            r.problems.push_back(
                hexAddr(pc) + ": spread-confirmed branch carries a [" +
                std::to_string(c->bound.lo) + ", " +
                std::to_string(c->bound.hi) +
                "] delay bound; the cost engine should prove it free");
            continue;
        }
        ++r.costZeroBound;
    }
    if (r.claimedSpread != res.fullySpread) {
        r.problems.push_back(
            "passSpread counted " + std::to_string(res.fullySpread) +
            " fully spread pairs but tagged " +
            std::to_string(r.claimedSpread));
    }

    // Recount fold eligibility from the CodeList + linear-decode view
    // and compare classifications site by site.
    for (std::size_t i = 0; i < bin.size(); ++i) {
        if (!isBranch(bin[i].inst.op) ||
            bin[i].inst.op == Opcode::kCall) {
            continue;
        }
        const Addr pc = bin[i].pc;
        const auto it = r.analysis.sites.find(pc);
        if (it == r.analysis.sites.end())
            continue; // unreachable
        const BranchSite& s = it->second;

        const bool short_rel =
            bin[i].len == 1 && bin[i].inst.bmode == BranchMode::kPcRel;
        const bool has_carrier =
            i > 0 && !isBranch(bin[i - 1].inst.op) &&
            isFoldableBody(bin[i - 1].inst.op) &&
            carrierOk(policy, bin[i - 1].len);
        const bool expect_foldable = short_rel && has_carrier;

        if (!expect_foldable && s.cls != FoldClass::kLone) {
            r.problems.push_back(
                hexAddr(pc) +
                ": analyzer folds a branch the fold rules say has no "
                "eligible carrier");
        }
        if (expect_foldable && r.analysis.cfg->has(bin[i - 1].pc) &&
            s.cls == FoldClass::kLone) {
            r.problems.push_back(
                hexAddr(pc) +
                ": branch has a reachable eligible carrier but the "
                "analyzer never folds it");
        }
    }
    return r;
}

} // namespace crisp::analysis
