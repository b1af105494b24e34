/**
 * @file
 * Call graph over the issue-point CFG: function discovery, call edges,
 * and return-site matching.
 *
 * Functions are discovered from call targets rather than from symbol
 * names: every static call target (in reachable *and* unreachable
 * text) plus the program entry is a function entry. Each reachable
 * issue point is assigned to the function whose intra-procedural
 * walk (call edges replaced by call -> return-site fall-through)
 * reaches it first, entries visited in address order with the program
 * entry first. The partition is a best-effort ownership map — shared
 * tails reached from two functions keep their first owner — which is
 * exactly what the return-site matching needs: a sound *candidate*
 * set, never a proof.
 *
 * Consumers:
 *  - targets.cc uses returnSitesOf() as the fallback target set for a
 *    return whose pushed return word the value analysis lost. That
 *    fallback assumes return-word integrity (no store smashed the
 *    saved address); target sets derived this way are reported but
 *    never enforced at retire time.
 *  - checks.cc emits callgraph.unreachable-function for entries that
 *    are called somewhere in text but never reachable from the
 *    program entry.
 */

#ifndef CRISP_ANALYSIS_CALLGRAPH_HH
#define CRISP_ANALYSIS_CALLGRAPH_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cfg.hh"

namespace crisp::analysis
{

/** One static call instruction found in the text segment. */
struct CallSite
{
    /** Issue-point address of the call entry (carrier pc when folded),
     *  or the raw instruction address for calls in unreachable text. */
    Addr pc = 0;
    /** Static callee entry address. */
    Addr callee = 0;
    /** Return address the call pushes. */
    Addr retPc = 0;
    /** True when the call is a reachable issue point in the CFG. */
    bool reachable = false;

    bool operator==(const CallSite&) const = default;
};

/** One discovered function. */
struct CgFunction
{
    Addr entry = 0;
    /** Symbol name when a label names the entry; empty otherwise. */
    std::string name;
    /** True when the entry is a reachable issue point. */
    bool reachable = false;
    /** Call-site pcs (CallSite::pc) targeting this entry. */
    std::vector<Addr> callers;
    /** Return addresses of *reachable* calls to this entry: the
     *  candidate target set of this function's returns. */
    std::set<Addr> returnSites;

    bool operator==(const CgFunction&) const = default;
};

class CallGraph
{
  public:
    explicit CallGraph(const Cfg& cfg);

    /** All static call sites, ordered by pc. */
    const std::vector<CallSite>& sites() const { return sites_; }

    /** Discovered functions keyed by entry address. */
    const std::map<Addr, CgFunction>& functions() const
    {
        return funcs_;
    }

    /** Ownership partition: reachable issue point -> function entry. */
    const std::map<Addr, Addr>& owner() const { return owner_; }

    /**
     * Candidate return-target set for a return at issue point @p pc:
     * the return sites of its owning function, or every reachable
     * call's return site when ownership is unknown.
     */
    std::set<Addr> returnSitesOf(Addr pc) const;

    /** Return sites of every reachable call (the ⊤ fallback). */
    const std::set<Addr>& allReturnSites() const
    {
        return allReturnSites_;
    }

    /** Functions called somewhere in text but never reachable. */
    std::vector<const CgFunction*> unreachableFunctions() const;

  private:
    std::vector<CallSite> sites_;
    std::map<Addr, CgFunction> funcs_;
    std::map<Addr, Addr> owner_;
    std::set<Addr> allReturnSites_;
};

} // namespace crisp::analysis

#endif // CRISP_ANALYSIS_CALLGRAPH_HH
