/**
 * @file
 * The `crispcc -O` driver: analyze, rewrite, re-spread, validate.
 */

#include "opt.hh"

#include <optional>
#include <sstream>

#include "session.hh"
#include "util/json.hh"

namespace crisp::analysis
{

namespace
{

/** Linear (fold-free) decode pcs, one per binary instruction. */
std::vector<Addr>
linearPcs(const Program& prog)
{
    std::vector<Addr> pcs;
    Addr pc = prog.textBase;
    while (pc < prog.textEnd()) {
        const int len = instructionLength(prog.parcelAt(pc));
        if (len <= 0)
            break;
        pcs.push_back(pc);
        pc += static_cast<Addr>(len) * kParcelBytes;
    }
    return pcs;
}

std::size_t
nonLabelCount(const cc::CodeList& code)
{
    std::size_t n = 0;
    for (const cc::CodeItem& c : code)
        n += c.kind != cc::CodeItem::Kind::kLabel ? 1 : 0;
    return n;
}

/** siteId -> branch pc under the 1:1 item/instruction pairing. */
std::map<int, Addr>
sitePcs(const cc::CodeList& code, const Program& prog)
{
    const std::vector<Addr> pcs = linearPcs(prog);
    std::map<int, Addr> m;
    std::size_t ord = 0;
    for (const cc::CodeItem& c : code) {
        if (c.kind == cc::CodeItem::Kind::kLabel)
            continue;
        if (c.siteId >= 0 && ord < pcs.size())
            m[c.siteId] = pcs[ord];
        ++ord;
    }
    return m;
}

/**
 * Constant branch directions, by branch parcel pc. A branch parcel may
 * belong to two issue points (folded into its carrier and as a lone
 * entry); rewriting the shared instruction is sound only when every
 * executable issue point containing it proves the same direction.
 */
std::map<Addr, bool>
agreedDirections(const Cfg& cfg, const SccpResult& sc)
{
    std::map<Addr, std::optional<bool>> by_branch;
    for (const auto& [pc, n] : cfg.nodes()) {
        if (!n.di.hasCondBranch())
            continue;
        if (sc.executable.count(pc) == 0)
            continue;
        const auto pit = sc.provenDirection.find(pc);
        std::optional<bool> v;
        if (pit != sc.provenDirection.end())
            v = pit->second;
        const Addr b = n.di.branchPc;
        const auto it = by_branch.find(b);
        if (it == by_branch.end())
            by_branch.emplace(b, v);
        else if (it->second != v)
            it->second = std::nullopt;
        if (!v)
            by_branch[b] = std::nullopt;
    }
    std::map<Addr, bool> out;
    for (const auto& [b, v] : by_branch) {
        if (v)
            out.emplace(b, *v);
    }
    return out;
}

} // namespace

OptReport
optimize(const cc::CompileResult& base, const cc::CompileOptions& copts,
         const OptOptions& oopts)
{
    OptReport r;
    r.result = base;
    if (copts.delaySlots || copts.annulSlots) {
        r.applicable = false;
        return r;
    }

    // Tag conditional branches with their TV site identity before any
    // pass runs; tags travel with the items through every rewrite.
    cc::CodeList base_code = base.code;
    int next_site = 0;
    for (cc::CodeItem& c : base_code) {
        if (c.isCondBranch())
            c.siteId = next_site++;
    }
    r.result.code = base_code;
    r.stats.instrBefore = nonLabelCount(base_code);

    const cc::LinkContext& ctx = base.link;
    cc::CodeList work = base_code;
    bool changed = false;
    bool tampered = false;

    for (int round = 0; round < oopts.maxRounds; ++round) {
        const Program prog = cc::linkCode(work, ctx);
        // The passes read facts, never lint rules, so the default
        // options serve. A product is computed when a pass first reads
        // it: liveness and reaching definitions only once steps 1 and
        // 2a found nothing (or the tamper hook reads liveness), targets
        // only at step 4.
        AnalysisSession a(prog);
        if (a.hasErrors())
            break;
        const std::vector<Addr> pcs = linearPcs(prog);
        if (pcs.size() != nonLabelCount(work))
            break; // pairing broken: stop rewriting, TV still gates
        std::map<Addr, std::size_t> ord;
        for (std::size_t i = 0; i < pcs.size(); ++i)
            ord.emplace(pcs[i], i);
        ++r.stats.rounds;
        const Cfg& cfg = a.cfg();
        const SccpResult& sc = a.sccp();

        // Exactly one pass per round: every ordinal-keyed plan is
        // derived from and applied to the same linked layout.

        // 1. Constant conditional branches.
        std::map<std::size_t, bool> dirs;
        for (const auto& [bpc, taken] : agreedDirections(cfg, sc)) {
            const auto it = ord.find(bpc);
            if (it != ord.end())
                dirs.emplace(it->second, taken);
        }
        if (!dirs.empty()) {
            const int n = cc::passConstFold(work, dirs);
            if (n > 0) {
                r.stats.branchesRewritten += n;
                changed = true;
                continue;
            }
        }

        // 2a. Items no executable issue point covers.
        std::set<Addr> covered;
        for (const auto& [pc, n] : cfg.nodes()) {
            if (sc.executable.count(pc) == 0)
                continue;
            covered.insert(pc);
            if (n.di.folded)
                covered.insert(n.di.branchPc);
        }
        cc::DcePlan unreach;
        for (std::size_t i = 0; i < pcs.size(); ++i) {
            if (covered.count(pcs[i]) == 0)
                unreach.unreachable.insert(i);
        }
        if (oopts.tamperDce && !tampered) {
            // Negative-testing hook: force-delete the first *global*
            // store the analysis did NOT prove dead. Globals are part
            // of the validator's observable state (data segment at
            // halt), so the deletion cannot hide the way a dropped
            // stack store can when the slot happens to hold the stored
            // value already. The validator must reject.
            std::set<Addr> dead_pcs;
            for (const DeadStore& d : a.liveness().dead)
                dead_pcs.insert(d.pc);
            std::size_t o = 0;
            for (const cc::CodeItem& c : work) {
                if (c.kind == cc::CodeItem::Kind::kLabel)
                    continue;
                const bool store =
                    c.kind == cc::CodeItem::Kind::kInst &&
                    (c.inst.op == Opcode::kMov || isAlu2(c.inst.op)) &&
                    c.inst.dst.mode == AddrMode::kAbs;
                if (store && o < pcs.size() &&
                    dead_pcs.count(pcs[o]) == 0 &&
                    unreach.unreachable.count(o) == 0) {
                    unreach.unreachable.insert(o);
                    tampered = true;
                    break;
                }
                ++o;
            }
        }
        if (!unreach.unreachable.empty()) {
            const int n = cc::passDCE(work, unreach);
            if (n > 0) {
                r.stats.unreachableRemoved += n;
                changed = true;
                continue;
            }
        }

        // 2b. Dead definitions, redundant copies, dead compares.
        cc::DcePlan plan;
        for (const DeadStore& d : a.liveness().dead) {
            const auto it = ord.find(d.pc);
            if (it == ord.end())
                continue;
            if (d.kind == DeadKind::kCompare)
                plan.ccDead.insert(it->second);
            else
                plan.dead.insert(it->second);
        }
        for (const RedundantCopy& c :
             findRedundantCopies(cfg, a.reachdefs(), sc.state)) {
            const auto it = ord.find(c.pc);
            if (it != ord.end())
                plan.dead.insert(it->second);
        }
        int new_marks = 0;
        {
            std::size_t o = 0;
            for (const cc::CodeItem& c : work) {
                if (c.kind == cc::CodeItem::Kind::kLabel)
                    continue;
                if (plan.ccDead.count(o) != 0 && !c.ccDead)
                    ++new_marks;
                ++o;
            }
        }
        if (!plan.dead.empty() || new_marks > 0) {
            const int n = cc::passDCE(work, plan);
            r.stats.deadRemoved += n;
            r.stats.ccDeadMarked += new_marks;
            if (n > 0 || new_marks > 0) {
                changed = true;
                continue;
            }
        }

        // 3. Copy propagation.
        std::vector<cc::ConstOperand> uses;
        for (const ConstUse& u :
             findConstPropUses(cfg, a.reachdefs(), sc.state)) {
            const auto it = ord.find(u.pc);
            if (it != ord.end())
                uses.push_back({it->second, u.dstOperand, u.value});
        }
        if (!uses.empty()) {
            const int n = cc::passCopyProp(work, uses);
            if (n > 0) {
                r.stats.operandsRewritten += n;
                changed = true;
                continue;
            }
        }

        // 4. Devirtualization: indirect jumps whose target set the
        // interprocedural analysis proved to be one text address. A
        // program without an indirect jump has no such site, so the
        // value-set fixpoint runs only for one that has.
        if (cfg.hasIndirect()) {
            // A label's linked address is the next non-label item's
            // linear-decode pc (trailing labels link to textEnd and
            // can never be devirtualization targets).
            std::map<Addr, std::string> label_at;
            std::size_t o = 0;
            for (const cc::CodeItem& c : work) {
                if (c.kind == cc::CodeItem::Kind::kLabel) {
                    if (o < pcs.size())
                        label_at.emplace(pcs[o], c.name);
                } else {
                    ++o;
                }
            }
            // A branch parcel can belong to two issue points (mixed
            // fold): rewrite only when every one proves the same
            // single valid target.
            std::map<Addr, std::optional<Addr>> by_branch;
            for (const auto& [pc, s] : a.targets().sites) {
                if (s.kind != TargetSiteKind::kIndirectJump)
                    continue;
                std::optional<Addr> v;
                if (s.singleton() && s.enforceable &&
                    s.invalidTargets == 0) {
                    v = *s.targets.begin();
                }
                const auto [it, fresh] =
                    by_branch.emplace(s.branchPc, v);
                if (!fresh && it->second != v)
                    it->second = std::nullopt;
                if (!v)
                    by_branch[s.branchPc] = std::nullopt;
            }
            std::vector<cc::DevirtSite> dsites;
            for (const auto& [bpc, v] : by_branch) {
                if (!v)
                    continue;
                const auto oit = ord.find(bpc);
                const auto lit = label_at.find(*v);
                if (oit == ord.end() || lit == label_at.end())
                    continue;
                dsites.push_back({oit->second, lit->second});
            }
            if (!dsites.empty()) {
                const int n = cc::passDevirt(work, dsites);
                if (n > 0) {
                    r.stats.devirtualized += n;
                    changed = true;
                    continue;
                }
            }
        }
        break; // quiescent
    }

    if (!changed) {
        // Nothing fired: ship the (tagged) baseline untouched.
        r.stats.instrAfter = r.stats.instrBefore;
        return r;
    }

    const std::map<int, Addr> before_sites =
        sitePcs(base_code, base.program);
    TvOptions tvo;
    tvo.semantic = oopts.semanticTv;

    const auto validate = [&](const cc::CodeList& cand,
                              const Program& cand_prog) {
        const std::map<int, Addr> after_sites = sitePcs(cand, cand_prog);
        std::vector<std::pair<Addr, Addr>> pairs;
        for (const auto& [id, bpc] : before_sites) {
            const auto it = after_sites.find(id);
            if (it != after_sites.end())
                pairs.emplace_back(bpc, it->second);
        }
        return validateRewrite(base.program, cand_prog, pairs, tvo);
    };

    const auto ship = [&](cc::CodeList cand, Program cand_prog,
                          int fully_spread, const TvReport& tv) {
        r.tv = tv;
        r.optimized = true;
        r.result.program = std::move(cand_prog);
        r.result.listing = cc::makeListing(cand, ctx);
        r.result.fullySpread = fully_spread;
        r.result.code = std::move(cand);
        r.stats.instrAfter = nonLabelCount(r.result.code);
        r.stats.envelopeHiBefore = tv.envelopeHiBefore;
        r.stats.envelopeHiAfter = tv.envelopeHiAfter;
    };

    // Full candidate: rewrites + ccDead-aware re-spread + cleanups.
    cc::CodeList full = work;
    if (copts.peephole)
        r.stats.peepholeRemoved += cc::passPeephole(full, ctx.keepLabels);
    int fully = base.fullySpread;
    if (copts.spread) {
        fully = cc::passRespread(full, copts.spreadDistance);
        r.stats.respreadFully = fully;
    }
    if (copts.peephole)
        r.stats.peepholeRemoved += cc::passPeephole(full, ctx.keepLabels);
    cc::passPredictBits(full, copts.predict);
    Program full_prog = cc::linkCode(full, ctx);
    const TvReport tv_full = validate(full, full_prog);
    if (tv_full.ok || tampered) {
        ship(std::move(full), std::move(full_prog), fully, tv_full);
        return r;
    }

    // Fallback 1: the rewrites alone, without the re-spread.
    r.tvFallback = true;
    cc::CodeList plain = work;
    cc::passPredictBits(plain, copts.predict);
    Program plain_prog = cc::linkCode(plain, ctx);
    const TvReport tv_plain = validate(plain, plain_prog);
    if (tv_plain.ok) {
        int plain_fully = 0;
        for (const cc::CodeItem& c : plain) {
            if (c.isCondBranch() && c.spreadClaim)
                ++plain_fully;
        }
        ship(std::move(plain), std::move(plain_prog), plain_fully,
             tv_plain);
        return r;
    }

    // Fallback 2: revert to the unoptimized baseline.
    r.tv = tv_plain;
    r.optimized = false;
    r.stats.instrAfter = r.stats.instrBefore;
    r.stats.envelopeHiBefore = tv_plain.envelopeHiBefore;
    r.stats.envelopeHiAfter = tv_plain.envelopeHiBefore;
    return r;
}

std::string
OptReport::toJson() const
{
    std::ostringstream os;
    os << "{";
    os << "\"applicable\":" << (applicable ? "true" : "false");
    os << ",\"optimized\":" << (optimized ? "true" : "false");
    os << ",\"tvFallback\":" << (tvFallback ? "true" : "false");
    os << ",\"rounds\":" << stats.rounds;
    os << ",\"passes\":{";
    os << "\"constFold\":{\"branchesRewritten\":"
       << stats.branchesRewritten << "}";
    os << ",\"dce\":{\"deadRemoved\":" << stats.deadRemoved
       << ",\"unreachableRemoved\":" << stats.unreachableRemoved
       << ",\"ccDeadMarked\":" << stats.ccDeadMarked << "}";
    os << ",\"copyProp\":{\"operandsRewritten\":"
       << stats.operandsRewritten << "}";
    os << ",\"devirt\":{\"rewritten\":" << stats.devirtualized << "}";
    os << ",\"respread\":{\"fullySpread\":" << stats.respreadFully
       << "}";
    os << ",\"peephole\":{\"removed\":" << stats.peepholeRemoved << "}";
    os << "}";
    os << ",\"instructions\":{\"before\":" << stats.instrBefore
       << ",\"after\":" << stats.instrAfter << "}";
    os << ",\"costEnvelope\":{\"before\":" << stats.envelopeHiBefore
       << ",\"after\":" << stats.envelopeHiAfter << ",\"delta\":"
       << (static_cast<std::int64_t>(stats.envelopeHiBefore) -
           static_cast<std::int64_t>(stats.envelopeHiAfter))
       << "}";
    os << ",\"tv\":{\"ok\":" << (tv.ok ? "true" : "false");
    os << ",\"sitesMatched\":" << tv.sitesMatched;
    os << ",\"sitesImproved\":" << tv.sitesImproved;
    os << ",\"semanticChecked\":"
       << (tv.semanticChecked ? "true" : "false");
    os << ",\"problems\":[";
    for (std::size_t i = 0; i < tv.problems.size(); ++i) {
        if (i != 0)
            os << ",";
        os << "\"" << util::jsonEscape(tv.problems[i]) << "\"";
    }
    os << "],\"counterexample\":\"" << util::jsonEscape(tv.counterexample)
       << "\"";
    os << "}}";
    return os.str();
}

} // namespace crisp::analysis
