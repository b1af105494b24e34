/**
 * @file
 * The one worklist-to-fixpoint solver behind every dataflow analysis
 * over the issue-point CFG: spread distances, abstract interpretation,
 * SCCP, the value-set target fixpoint, liveness and reaching
 * definitions.
 *
 * The solver owns the iteration policy: the worklist and its order,
 * the per-node join count, widening after kAbsintWidenJoins changes,
 * the step cap, and the converged/steps/widenings bookkeeping. A
 * lattice policy supplies everything else:
 *
 *     using State = ...;   // State{} is bottom: every slot's initial
 *                          // value and the identity of join
 *     static constexpr Direction kDirection;
 *     State boundary() const;  // joined into the entry node (forward)
 *                              // or every exit node (backward)
 *     State top() const;       // the sound state of a step-cap bail
 *     State join(const State& a, const State& b) const;
 *     State transfer(const CfgNode& n, const State& joined) const;
 *
 * and, where the lattice needs them:
 *
 *     // What crosses the edge, or nothing when it carries s unchanged
 *     // (absent: every edge carries its source state unchanged).
 *     std::optional<State> edge(const CfgNode& from, const State& s,
 *                               Addr to) const;
 *     // An upper bound of both states that ends every ascending chain
 *     // (absent: the lattice has finite height and is never widened).
 *     State widen(const State& prev, const State& next,
 *                 int& widenings) const;
 *
 * A backward policy also names the nodes that execute (`bool
 * executes(const CfgNode&) const`): backward problems run over the
 * executable subgraph a forward fixpoint found, and a node outside it
 * keeps bottom on both sides.
 */

#ifndef CRISP_ANALYSIS_FIXPOINT_HH
#define CRISP_ANALYSIS_FIXPOINT_HH

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "cfg.hh"
#include "flat.hh"

namespace crisp::analysis
{

/** Changes of a node's joined state after which it is widened. */
inline constexpr int kAbsintWidenJoins = 12;

/** Node visits per CFG node before the sound bail to top. */
inline constexpr std::uint64_t kAbsintStepsPerNode = 64;

/** Which way facts flow along CFG edges. */
enum class Direction {
    kForward,  //!< from the entry along successor edges
    kBackward, //!< from the exits along predecessor edges
};

/** Bookkeeping of one solver run. */
struct FixpointRun
{
    /** False when the step cap tripped and every state degraded to
     *  the policy's top (still sound, no longer precise). */
    bool converged = true;

    /** Node visits until the fixpoint. */
    std::uint64_t steps = 0;

    /** Widening applications (loop-head escalations). */
    int widenings = 0;
};

/**
 * Solve @p p to fixpoint over @p cfg, filling @p in and @p out (the
 * states before and after each node in program order). Worklist
 * order: forward problems start from the entry alone and revisit
 * successors first-in first-out; backward problems start from every
 * node in descending address order and revisit predecessors the same
 * way. A @p step_cap of 0 means kAbsintStepsPerNode per node plus 256.
 */
template <class Policy>
FixpointRun
solveFixpoint(const Cfg& cfg, const Policy& p,
              std::map<Addr, typename Policy::State>& in,
              std::map<Addr, typename Policy::State>& out,
              std::uint64_t step_cap = 0)
{
    using State = typename Policy::State;
    constexpr bool kForward = Policy::kDirection == Direction::kForward;
    // The joined side of a node, and the side its transfer produces.
    auto& head = kForward ? in : out;
    auto& tail = kForward ? out : in;

    FixpointRun run;
    in.clear();
    out.clear();
    std::deque<Addr> work;
    for (const auto& [pc, n] : cfg.nodes()) {
        in.emplace(pc, State{});
        out.emplace(pc, State{});
        if (!kForward)
            work.push_front(pc);
    }
    const Addr entry = cfg.program().entry;
    if (kForward && cfg.has(entry))
        work.push_back(entry);
    std::set<Addr> queued(work.begin(), work.end());
    std::map<Addr, int> joins;

    if (step_cap == 0) {
        step_cap = static_cast<std::uint64_t>(cfg.nodes().size()) *
                       kAbsintStepsPerNode +
                   256;
    }

    while (!work.empty()) {
        if (++run.steps > step_cap) {
            run.converged = false;
            for (auto& [pc, s] : in)
                s = p.top();
            for (auto& [pc, s] : out)
                s = p.top();
            return run;
        }

        const Addr pc = work.front();
        work.pop_front();
        queued.erase(pc);
        const CfgNode& n = cfg.node(pc);
        if constexpr (!kForward) {
            if (!p.executes(n))
                continue;
        }

        const auto& sources = kForward ? n.preds : n.succs;
        const bool at_boundary = kForward ? pc == entry : sources.empty();
        State j = at_boundary ? p.boundary() : State{};
        for (const Addr s : sources) {
            const State& src = tail.at(s);
            if constexpr (requires { p.edge(n, src, pc); }) {
                const std::optional<State> e = p.edge(cfg.node(s), src, pc);
                j = p.join(j, e ? *e : src);
            } else {
                j = p.join(j, src);
            }
        }

        State& head_slot = head.at(pc);
        if (!(j == head_slot)) {
            if constexpr (requires { p.widen(j, j, run.widenings); }) {
                if (++joins[pc] > kAbsintWidenJoins)
                    j = p.widen(head_slot, j, run.widenings);
            }
            head_slot = j;
        }

        State t = p.transfer(n, j);
        State& tail_slot = tail.at(pc);
        if (t == tail_slot)
            continue;
        tail_slot = std::move(t);
        for (const Addr s : kForward ? n.succs : n.preds) {
            if (queued.insert(s).second)
                work.push_back(s);
        }
    }
    return run;
}

/**
 * Widen a per-address fact map (absent means top) to an upper bound of
 * both arguments: a fact survives only when both maps hold it and it
 * did not grow (@p grew), and then keeps its previous value. Each fact
 * that grew counts one widening.
 */
template <class Fact, class Grew>
FlatMap<Addr, Fact>
widenFacts(const FlatMap<Addr, Fact>& prev,
           const FlatMap<Addr, Fact>& next, Grew grew, int& widenings)
{
    FlatMap<Addr, Fact> w;
    forCommonKeys(prev, next,
                  [&](Addr addr, const Fact& vp, const Fact& vn) {
                      if (grew(vp, vn))
                          ++widenings;
                      else
                          w.emplace_back(addr, vp);
                  });
    return w;
}

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_FIXPOINT_HH
