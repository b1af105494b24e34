/**
 * @file
 * Issue-point CFG construction: entry-closure discovery, jump-table
 * candidate collection, basic-block formation, DOT output.
 */

#include "cfg.hh"

#include <algorithm>
#include <deque>
#include <sstream>

namespace crisp::analysis
{

namespace
{

/** Word-aligned little-endian data words naming aligned text addresses. */
std::set<Addr>
collectIndirectCandidates(const Program& prog)
{
    std::set<Addr> out;
    for (Addr a = prog.dataBase; const auto w = prog.dataWord(a);
         a += kWordBytes) {
        const auto v = static_cast<Addr>(*w);
        if (prog.inText(v) && v % kParcelBytes == 0)
            out.insert(v);
    }
    return out;
}

} // namespace

Cfg::Cfg(const Program& prog, FoldPolicy policy)
    : prog_(prog), policy_(policy),
      indTargets_(collectIndirectCandidates(prog))
{
    discover();
    buildBlocks();
    number();
}

std::vector<Addr>
Cfg::successorsOf(const DecodedInst& di, Addr pc)
{
    std::vector<Addr> raw;
    switch (di.ctl) {
      case Ctl::kSeq:
        raw.push_back(di.seqPc);
        break;
      case Ctl::kJmp:
        raw.push_back(di.takenPc);
        break;
      case Ctl::kCondT:
      case Ctl::kCondF:
        raw.push_back(di.takenPc);
        raw.push_back(di.seqPc);
        break;
      case Ctl::kCall:
        // The callee, plus the return site the pushed address names.
        // The direct call -> return-site edge under-approximates the
        // real path through the callee, which is the sound direction
        // for the min-distance dataflow built on these edges.
        raw.push_back(di.takenPc);
        raw.push_back(di.callRetPc);
        break;
      case Ctl::kRet:
        // Return sites are already reachable through their call edges.
        break;
      case Ctl::kIndirect:
        hasIndirect_ = true;
        raw.insert(raw.end(), indTargets_.begin(), indTargets_.end());
        break;
      case Ctl::kHalt:
        break;
    }

    std::vector<Addr> out;
    for (const Addr t : raw) {
        if (t % kParcelBytes != 0 || !prog_.inText(t)) {
            badTargets_.emplace_back(pc, t);
            continue;
        }
        out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
Cfg::discover()
{
    const FoldDecoder decoder(policy_);
    const Addr text_end = prog_.textEnd();

    std::deque<Addr> work;
    auto enqueue = [&](Addr pc) {
        if (nodes_.count(pc) == 0) {
            nodes_.emplace(pc, CfgNode{});
            work.push_back(pc);
        }
    };

    if (prog_.entry % kParcelBytes == 0 && prog_.inText(prog_.entry)) {
        enqueue(prog_.entry);
    } else {
        badTargets_.emplace_back(prog_.entry, prog_.entry);
    }

    bool indirect_seeded = false;
    while (!work.empty()) {
        const Addr pc = work.front();
        work.pop_front();
        CfgNode& n = nodes_.at(pc);

        const std::size_t idx = (pc - prog_.textBase) / kParcelBytes;
        const std::span<const Parcel> window{prog_.text.data() + idx,
                                             prog_.text.size() - idx};
        const FoldDecode d = decoder.decodeAt(pc, window, /*at_end=*/true);
        const std::optional<DecodedInst>& di = d.di;
        if (!di) {
            decodeErrors_.emplace_back(
                pc, d.error != nullptr
                        ? d.error
                        : "instruction truncated by end of text segment");
            // Keep the node as a zero-length placeholder so edges to it
            // stay representable; totalParcels = 0 marks "no decode".
            n.di.pc = pc;
            n.di.totalParcels = 0;
            continue;
        }
        if (di->ctl == Ctl::kSeq && di->seqPc >= text_end) {
            decodeErrors_.emplace_back(
                pc, "control falls through the end of the text segment");
        }

        n.di = *di;
        n.succs = successorsOf(*di, pc);
        for (const Addr s : n.succs)
            enqueue(s);

        // The first reachable indirect jump makes every jump-table
        // candidate a root; later indirect jumps share the same set.
        if (di->ctl == Ctl::kIndirect && !indirect_seeded) {
            indirect_seeded = true;
            for (const Addr t : indTargets_)
                enqueue(t);
        }
    }

    // Nodes that never decoded (errors) keep empty succs; drop their
    // placeholder state from succ lists? They stay: a predecessor's
    // edge to a malformed address is real and the diagnostics layer
    // reports the decode error at that address.
    for (auto& [pc, n] : nodes_) {
        for (const Addr s : n.succs)
            nodes_.at(s).preds.push_back(pc);
    }
    for (auto& [pc, n] : nodes_) {
        std::sort(n.preds.begin(), n.preds.end());
        n.preds.erase(std::unique(n.preds.begin(), n.preds.end()),
                      n.preds.end());
    }
}

void
Cfg::buildBlocks()
{
    // A node starts a block when it is not the unique fall-in of a
    // unique predecessor.
    auto is_leader = [&](const CfgNode& n) {
        if (n.preds.size() != 1)
            return true;
        const CfgNode& p = nodes_.at(n.preds.front());
        return p.succs.size() != 1;
    };

    for (auto& [pc, n] : nodes_) {
        if (n.block != -1 || !is_leader(n))
            continue;
        const int id = static_cast<int>(blocks_.size());
        blocks_.emplace_back();
        CfgBlock& b = blocks_.back();
        Addr cur = pc;
        for (;;) {
            CfgNode& cn = nodes_.at(cur);
            cn.block = id;
            b.entries.push_back(cur);
            if (cn.succs.size() != 1)
                break;
            const CfgNode& nx = nodes_.at(cn.succs.front());
            if (nx.preds.size() != 1 || nx.block != -1)
                break;
            cur = cn.succs.front();
        }
    }
    // Cycles with no leader (a loop whose every node has one pred):
    // pick the lowest-address unassigned node as a leader and repeat.
    for (auto& [pc, n] : nodes_) {
        if (n.block != -1)
            continue;
        const int id = static_cast<int>(blocks_.size());
        blocks_.emplace_back();
        CfgBlock& b = blocks_.back();
        Addr cur = pc;
        while (nodes_.at(cur).block == -1) {
            CfgNode& cn = nodes_.at(cur);
            cn.block = id;
            b.entries.push_back(cur);
            if (cn.succs.size() != 1)
                break;
            cur = cn.succs.front();
        }
    }

    for (CfgBlock& b : blocks_) {
        const CfgNode& last = nodes_.at(b.entries.back());
        for (const Addr s : last.succs) {
            const int t = nodes_.at(s).block;
            if (std::find(b.succs.begin(), b.succs.end(), t) ==
                b.succs.end()) {
                b.succs.push_back(t);
            }
        }
    }
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        for (const int s : blocks_[i].succs)
            blocks_[static_cast<std::size_t>(s)].preds.push_back(
                static_cast<int>(i));
    }
}

void
Cfg::number()
{
    // Every node sits on a parcel of the text segment, so the edge
    // lists below look their numbers up by parcel index.
    std::vector<std::uint32_t> by_parcel(prog_.text.size());
    const auto parcel = [&](Addr pc) {
        return (pc - prog_.textBase) / kParcelBytes;
    };
    for (const auto& [pc, n] : nodes_) {
        by_parcel.at(parcel(pc)) = static_cast<std::uint32_t>(addrs_.size());
        addrs_.push_back(pc);
        numbered_.push_back(&n);
    }
    const auto fill = [&](Rows& rows, std::vector<Addr> CfgNode::*list) {
        for (const CfgNode* n : numbered_) {
            for (const Addr a : n->*list)
                rows.numbers.push_back(by_parcel[parcel(a)]);
            rows.offsets.push_back(
                static_cast<std::uint32_t>(rows.numbers.size()));
        }
    };
    fill(succNums_, &CfgNode::succs);
    fill(predNums_, &CfgNode::preds);
}

std::vector<std::pair<Addr, Addr>>
Cfg::unreachableRanges() const
{
    const Addr base = prog_.textBase;
    const std::size_t parcels = prog_.text.size();
    std::vector<bool> covered(parcels, false);
    for (const auto& [pc, n] : nodes_) {
        if (n.di.totalParcels <= 0)
            continue; // decode error: nothing covered
        const std::size_t first = (pc - base) / kParcelBytes;
        for (int i = 0; i < n.di.totalParcels; ++i) {
            if (first + static_cast<std::size_t>(i) < parcels)
                covered[first + static_cast<std::size_t>(i)] = true;
        }
    }

    std::vector<std::pair<Addr, Addr>> out;
    std::size_t i = 0;
    while (i < parcels) {
        if (covered[i]) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < parcels && !covered[j])
            ++j;
        out.emplace_back(base + static_cast<Addr>(i) * kParcelBytes,
                         base + static_cast<Addr>(j) * kParcelBytes);
        i = j;
    }
    return out;
}

std::string
Cfg::toDot() const
{
    std::ostringstream os;
    os << "digraph cfg {\n"
       << "  node [shape=box, fontname=\"monospace\"];\n";
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const CfgBlock& b = blocks_[i];
        os << "  b" << i << " [label=\"";
        for (const Addr pc : b.entries) {
            // Graphviz escaping: backslashes and double quotes must
            // be backslash-escaped inside a quoted label — mangling
            // quotes into apostrophes changes the text, and a bare
            // backslash starts an escape sequence dot may reject.
            for (const char c : nodes_.at(pc).di.toString()) {
                if (c == '"' || c == '\\')
                    os << '\\';
                os << c;
            }
            os << "\\l";
        }
        os << "\"];\n";
    }
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const CfgNode& last = nodes_.at(blocks_[i].entries.back());
        const bool indirect = last.di.ctl == Ctl::kIndirect;
        for (const int s : blocks_[i].succs) {
            os << "  b" << i << " -> b" << s;
            if (indirect)
                os << " [style=dashed]";
            os << ";\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace crisp::analysis
