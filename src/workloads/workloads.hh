/**
 * @file
 * The workload suite: CRISP-C sources for every program used in the
 * paper's evaluation, plus the golden results every engine must
 * reproduce, kept as literal values (see allWorkloads() for where they
 * came from).
 *
 * Substitutions (documented in DESIGN.md): the paper's three large
 * programs (troff, the C compiler, a VLSI design-rule checker) and the
 * three benchmarks (Dhrystone, Cwhet, Puzzle) are replaced by
 * deterministic proxies with the same *branch-behaviour* signatures:
 *
 *   troff  -> character-classification/word-count state machine over
 *             LCG-generated text (heavily skewed branches)
 *   cc     -> expression tokenizer/evaluator over an LCG token stream
 *             (irregular, phase-dependent branches)
 *   drc    -> rectangle overlap/spacing checker (skewed comparisons)
 *   dhry   -> Dhrystone-like mix: calls, ladders, an alternating
 *             condition (static beats 1-bit dynamic, as in Table 1)
 *   cwhet  -> integer Whetstone-like kernels with alternating and
 *             mod-3 conditions
 *   puzzle -> N-queens backtracking search (global arrays, recursion)
 *
 * fig3 is the paper's Figure 3 program verbatim (modulo the paper's
 * odd/even vs zeros/ones transcription slip).
 */

#ifndef CRISP_WORKLOADS_WORKLOADS_HH
#define CRISP_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "isa/types.hh"

namespace crisp
{

struct Workload
{
    std::string name;
    std::string description;
    std::string source;
    /** Expected final value of specific globals (golden literals). */
    std::vector<std::pair<std::string, Word>> expectedGlobals;
    /** Expected accumulator (main's return value); checked if set. */
    bool checkAccum = false;
    Word expectedAccum = 0;
};

/** The paper's Figure 3 program with a configurable trip count. */
std::string fig3Source(int loops = 1024);

/** Expected main() return value (the final j) for fig3Source(loops). */
Word fig3Expected(int loops = 1024);

/** All workloads, golden values included. */
const std::vector<Workload>& allWorkloads();

/** Look up one workload by name. @throws CrispError if unknown. */
const Workload& workload(const std::string& name);

} // namespace crisp

#endif // CRISP_WORKLOADS_WORKLOADS_HH
