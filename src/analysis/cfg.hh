/**
 * @file
 * Static control-flow graph over an assembled CRISP program.
 *
 * Nodes are *issue points*: the decoded (possibly folded) entries the
 * Execution Unit can ever issue from, discovered by closing the
 * program's entry point over decoded successors. Decoding reuses the
 * PDU's own FoldDecoder (decoded.hh), so fold decisions, entry
 * boundaries and Next-PC/Alternate-PC values are parcel-exact replicas
 * of what the simulator's DIC will hold — the analysis and the
 * hardware model cannot disagree about what an address decodes to,
 * only about which addresses are reachable and what holds along paths.
 *
 * Because the EU demands entries by address, the same branch parcel can
 * participate in two distinct issue points: folded into the preceding
 * carrier (reached by falling into the carrier) and as a lone-branch
 * entry (reached by a jump straight at the branch). The graph keeps
 * both, exactly like the DIC does.
 *
 * Indirect jumps (switch dispatch) are resolved against the jump-table
 * candidate set: every word-aligned data word whose value is a
 * parcel-aligned text address. This over-approximates real targets the
 * same way the linker's .table fixups under-constrain them, which is
 * the safe direction for reachability and for min-distance dataflow.
 */

#ifndef CRISP_ANALYSIS_CFG_HH
#define CRISP_ANALYSIS_CFG_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "sim/decoded.hh"

namespace crisp::analysis
{

/** One issue point plus its graph neighborhood. */
struct CfgNode
{
    DecodedInst di;
    /** Successor issue-point addresses (deduplicated, sorted). */
    std::vector<Addr> succs;
    /** Predecessor issue-point addresses (deduplicated, sorted). */
    std::vector<Addr> preds;
    /** Basic block this node belongs to (index into blocks()). */
    int block = -1;
};

/**
 * The direct call -> return-site edge, which stands for the whole
 * unanalyzed callee body between the two points.
 */
inline bool
isCallReturnEdge(const DecodedInst& from, Addr to)
{
    return from.ctl == Ctl::kCall && to == from.callRetPc;
}

/** A maximal single-entry single-exit chain of issue points. */
struct CfgBlock
{
    std::vector<Addr> entries;
    std::vector<int> succs;
    std::vector<int> preds;
};

class Cfg
{
  public:
    /**
     * Build the issue-point graph of @p prog under @p policy. The Cfg
     * keeps its own copy of the program, so callers may pass a
     * temporary (AnalysisResult holds the Cfg long after the caller's
     * Program is gone).
     */
    Cfg(const Program& prog, FoldPolicy policy);

    // The node numbering points into nodes(); a copy would point into
    // the original.
    Cfg(const Cfg&) = delete;
    Cfg& operator=(const Cfg&) = delete;

    const Program& program() const { return prog_; }
    FoldPolicy policy() const { return policy_; }

    bool has(Addr pc) const { return nodes_.count(pc) != 0; }

    /** @p pc must satisfy has(pc). */
    const CfgNode&
    node(Addr pc) const
    {
        return nodes_.at(pc);
    }

    /** All reachable issue points, ordered by address. */
    const std::map<Addr, CfgNode>& nodes() const { return nodes_; }

    /**
     * The node numbering, fixed when the Cfg is built: nodes() in
     * address order are numbered 0 to nodes().size() - 1, and each
     * number keeps its node's successor and predecessor numbers
     * beside the address lists. The fixpoint solver runs over these.
     * @p pc must satisfy has(pc).
     */
    std::uint32_t
    numberOf(Addr pc) const
    {
        return static_cast<std::uint32_t>(
            std::lower_bound(addrs_.begin(), addrs_.end(), pc) -
            addrs_.begin());
    }

    Addr addressOf(std::uint32_t i) const { return addrs_[i]; }

    const CfgNode&
    nodeNumbered(std::uint32_t i) const
    {
        return *numbered_[i];
    }

    /** Numbers of node @p i's succs and preds, in the same order. */
    std::span<const std::uint32_t>
    succNumbers(std::uint32_t i) const
    {
        return succNums_.row(i);
    }

    std::span<const std::uint32_t>
    predNumbers(std::uint32_t i) const
    {
        return predNums_.row(i);
    }

    const std::vector<CfgBlock>& blocks() const { return blocks_; }

    /**
     * Jump-table candidate set: every word-aligned data word naming a
     * parcel-aligned text address. Used as the successor set of every
     * indirect jump.
     */
    const std::set<Addr>& indirectTargets() const { return indTargets_; }

    /** True if at least one reachable indirect jump exists. */
    bool hasIndirect() const { return hasIndirect_; }

    /**
     * Byte ranges [first, second) of the text segment not covered by
     * any reachable issue point.
     */
    std::vector<std::pair<Addr, Addr>> unreachableRanges() const;

    /**
     * Reachable addresses that failed to decode (truncated encodings,
     * indirect conditional branches): pc plus the decoder's message.
     */
    const std::vector<std::pair<Addr, std::string>>&
    decodeErrors() const
    {
        return decodeErrors_;
    }

    /**
     * Branch targets that left the text segment or broke parcel
     * alignment: (branch entry pc, bad target).
     */
    const std::vector<std::pair<Addr, Addr>>&
    badTargets() const
    {
        return badTargets_;
    }

    /** Graphviz dump, one record per basic block. */
    std::string toDot() const;

  private:
    /** Lists in compressed sparse rows: row i is
     *  numbers[offsets[i], offsets[i + 1]). */
    struct Rows
    {
        std::vector<std::uint32_t> offsets{0};
        std::vector<std::uint32_t> numbers;

        std::span<const std::uint32_t>
        row(std::uint32_t i) const
        {
            return {numbers.data() + offsets[i],
                    numbers.data() + offsets[i + 1]};
        }
    };

    void discover();
    void buildBlocks();
    void number();
    std::vector<Addr> successorsOf(const DecodedInst& di, Addr pc);

    Program prog_;
    FoldPolicy policy_;
    std::map<Addr, CfgNode> nodes_;
    std::vector<Addr> addrs_;
    std::vector<const CfgNode*> numbered_;
    Rows succNums_;
    Rows predNums_;
    std::vector<CfgBlock> blocks_;
    std::set<Addr> indTargets_;
    bool hasIndirect_ = false;
    std::vector<std::pair<Addr, std::string>> decodeErrors_;
    std::vector<std::pair<Addr, Addr>> badTargets_;
};

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_CFG_HH
