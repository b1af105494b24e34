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
#include <utility>
#include <vector>

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

    // Per node number (Cfg::numberOf): its joined side and the side
    // its transfer produces, as pointers into the result maps. The maps
    // are filled once, in number order, and a map node never moves.
    FixpointRun run;
    in.clear();
    out.clear();
    const auto count = static_cast<std::uint32_t>(cfg.nodes().size());
    std::vector<State*> head;
    std::vector<State*> tail;
    head.reserve(count);
    tail.reserve(count);
    for (const auto& [pc, n] : cfg.nodes()) {
        State& in_slot = in.emplace_hint(in.end(), pc, State{})->second;
        State& out_slot = out.emplace_hint(out.end(), pc, State{})->second;
        head.push_back(kForward ? &in_slot : &out_slot);
        tail.push_back(kForward ? &out_slot : &in_slot);
    }

    std::deque<std::uint32_t> work;
    const Addr entry_pc = cfg.program().entry;
    const std::uint32_t entry =
        cfg.has(entry_pc) ? cfg.numberOf(entry_pc) : count;
    if (!kForward) {
        for (std::uint32_t i = count; i-- > 0;)
            work.push_back(i);
    } else if (entry != count) {
        work.push_back(entry);
    }
    std::vector<bool> queued(count, false);
    for (const std::uint32_t i : work)
        queued[i] = true;
    std::vector<int> joins(count, 0);

    if (step_cap == 0)
        step_cap = std::uint64_t{count} * kAbsintStepsPerNode + 256;

    while (!work.empty()) {
        if (++run.steps > step_cap) {
            run.converged = false;
            for (auto& [pc, s] : in)
                s = p.top();
            for (auto& [pc, s] : out)
                s = p.top();
            return run;
        }

        const std::uint32_t i = work.front();
        work.pop_front();
        queued[i] = false;
        const CfgNode& n = cfg.nodeNumbered(i);
        if constexpr (!kForward) {
            if (!p.executes(n))
                continue;
        }

        const auto sources = kForward ? cfg.predNumbers(i)
                                      : cfg.succNumbers(i);
        const bool at_boundary = kForward ? i == entry : sources.empty();
        // State{} is the identity of join, so the first incoming state
        // is taken as it is.
        State j = at_boundary ? p.boundary() : State{};
        bool bottom = !at_boundary;
        const auto absorb = [&](auto&& s) {
            if (bottom)
                j = std::forward<decltype(s)>(s);
            else
                j = p.join(j, s);
            bottom = false;
        };
        for (const std::uint32_t s : sources) {
            const State& src = *tail[s];
            if constexpr (requires { p.edge(n, src, Addr{}); }) {
                std::optional<State> e =
                    p.edge(cfg.nodeNumbered(s), src, cfg.addressOf(i));
                if (e)
                    absorb(std::move(*e));
                else
                    absorb(src);
            } else {
                absorb(src);
            }
        }

        State& head_slot = *head[i];
        if (!(j == head_slot)) {
            if constexpr (requires { p.widen(j, j, run.widenings); }) {
                if (++joins[i] > kAbsintWidenJoins)
                    j = p.widen(head_slot, j, run.widenings);
            }
            head_slot = std::move(j);
        }

        State t = p.transfer(n, head_slot);
        State& tail_slot = *tail[i];
        if (t == tail_slot)
            continue;
        tail_slot = std::move(t);
        for (const std::uint32_t s :
             kForward ? cfg.succNumbers(i) : cfg.predNumbers(i)) {
            if (!queued[s]) {
                queued[s] = true;
                work.push_back(s);
            }
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
