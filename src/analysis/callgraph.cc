/**
 * @file
 * Call-graph construction: linear-scan call discovery plus an
 * intra-procedural ownership walk over the issue-point CFG.
 */

#include "callgraph.hh"

#include <algorithm>
#include <deque>
#include <optional>

namespace crisp::analysis
{

namespace
{

/** Static target of a direct call instruction, if it has one. */
std::optional<Addr>
directCallTarget(const Instruction& inst, Addr pc)
{
    if (inst.op != Opcode::kCall)
        return std::nullopt;
    switch (inst.bmode) {
      case BranchMode::kPcRel:
        return pc + static_cast<Addr>(inst.disp);
      case BranchMode::kAbs:
        return inst.spec;
      default:
        return std::nullopt; // indirect call: no static callee
    }
}

} // namespace

CallGraph::CallGraph(const Cfg& cfg)
{
    const Program& prog = cfg.program();

    // Reachable call sites come from the CFG (fold-exact: the call may
    // ride a carrier, in which case pc is the carrier's address).
    std::set<Addr> covered;
    for (const auto& [pc, n] : cfg.nodes()) {
        if (n.di.ctl != Ctl::kCall)
            continue;
        CallSite s;
        s.pc = pc;
        s.callee = n.di.takenPc;
        s.retPc = n.di.callRetPc;
        s.reachable = true;
        sites_.push_back(s);
        covered.insert(n.di.branchPc);
    }

    // Unreachable text still names callees (dead helper functions):
    // scan linearly, resynchronizing one parcel after decode errors.
    // The scan may misparse bytes that are really data-in-text; that
    // only ever *adds* function candidates, which is the safe
    // direction for an unreachable-function report.
    Addr pc = prog.textBase;
    const Addr end = prog.textEnd();
    while (pc < end) {
        const DecodeResult r = prog.tryFetch(pc);
        if (r.error != nullptr) {
            pc += kParcelBytes;
            continue;
        }
        const Instruction& inst = r.inst;
        if (!covered.count(pc)) {
            if (const auto callee = directCallTarget(inst, pc)) {
                CallSite s;
                s.pc = pc;
                s.callee = *callee;
                s.retPc = pc + inst.lengthBytes();
                s.reachable = false;
                sites_.push_back(s);
            }
        }
        pc += inst.lengthBytes();
    }

    std::sort(sites_.begin(), sites_.end(),
              [](const CallSite& a, const CallSite& b) {
                  return a.pc < b.pc;
              });

    // Function set: the entry point plus every static callee.
    funcs_[prog.entry].entry = prog.entry;
    for (const CallSite& s : sites_)
        funcs_[s.callee].entry = s.callee;
    for (auto& [entry, f] : funcs_) {
        f.reachable = cfg.has(entry);
        for (const auto& [name, sym] : prog.symbols) {
            if (sym.kind == Symbol::Kind::kLabel &&
                sym.value == entry) {
                f.name = name;
                break;
            }
        }
    }
    for (const CallSite& s : sites_) {
        CgFunction& f = funcs_.at(s.callee);
        f.callers.push_back(s.pc);
        if (s.reachable) {
            f.returnSites.insert(s.retPc);
            allReturnSites_.insert(s.retPc);
        }
    }

    // Ownership partition: intra-procedural BFS per reachable entry,
    // program entry first so shared prologue code binds to it.
    std::vector<Addr> entries;
    if (cfg.has(prog.entry))
        entries.push_back(prog.entry);
    for (const auto& [entry, f] : funcs_) {
        if (f.reachable && entry != prog.entry)
            entries.push_back(entry);
    }
    for (const Addr fe : entries) {
        std::deque<Addr> work{fe};
        while (!work.empty()) {
            const Addr at = work.front();
            work.pop_front();
            if (!owner_.emplace(at, fe).second)
                continue;
            const CfgNode& n = cfg.node(at);
            if (n.di.ctl == Ctl::kCall) {
                // Do not descend into the callee: a call's
                // intra-procedural successor is its return site.
                if (cfg.has(n.di.callRetPc))
                    work.push_back(n.di.callRetPc);
                continue;
            }
            for (const Addr s : n.succs) {
                // Another function's entry reached by plain control
                // flow (tail jump): leave it to its own walk.
                if (s != fe && funcs_.count(s))
                    continue;
                work.push_back(s);
            }
        }
    }
}

std::set<Addr>
CallGraph::returnSitesOf(Addr pc) const
{
    const auto it = owner_.find(pc);
    if (it != owner_.end()) {
        const auto f = funcs_.find(it->second);
        if (f != funcs_.end() && !f->second.returnSites.empty())
            return f->second.returnSites;
    }
    return allReturnSites_;
}

std::vector<const CgFunction*>
CallGraph::unreachableFunctions() const
{
    std::vector<const CgFunction*> r;
    for (const auto& [entry, f] : funcs_) {
        if (!f.reachable)
            r.push_back(&f);
    }
    return r;
}

} // namespace crisp::analysis
