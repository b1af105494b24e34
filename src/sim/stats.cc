/**
 * @file
 * SimStats text and JSON rendering.
 */

#include "stats.hh"

#include <sstream>

#include "util/json.hh"

namespace crisp
{

std::string
SimStats::toString() const
{
    std::ostringstream os;
    os << "engine:              " << engineName(engine) << "\n"
       << "cycles:              " << cycles << "\n"
       << "issued:              " << issued << "\n"
       << "apparent:            " << apparent << "\n"
       << "issued CPI:          " << issuedCpi() << "\n"
       << "apparent CPI:        " << apparentCpi() << "\n"
       << "branches:            " << branches << "\n"
       << "folded branches:     " << foldedBranches << "\n"
       << "cond branches:       " << condBranches << "\n"
       << "resolved at issue:   " << resolvedAtIssue << "\n"
       << "speculated:          " << speculated << "\n"
       << "mispredicts:         " << mispredicts << "\n"
       << "branch delay cycles: " << branchDelayCycles << "\n"
       << "squashed:            " << squashed << "\n"
       << "issue stalls:        " << issueStallCycles << "\n"
       << "  DIC miss stalls:   " << dicMissStallCycles << "\n"
       << "  redirect stalls:   " << redirectStallCycles << "\n"
       << "  indirect stalls:   " << indirectStallCycles << "\n"
       << "DIC hits/misses:     " << dicHits << "/" << dicMisses << "\n"
       << "PDU fills (folded):  " << pduFills << " (" << pduFoldedPairs
       << ")\n"
       << "memory fetches:      " << memFetches << "\n"
       << "stack cache h/m:     " << stackCacheHits << "/"
       << stackCacheMisses << "\n"
       << "halted:              " << (halted ? "yes" : "no") << "\n";
    if (timedOut)
        os << "TIMED OUT at the cycle limit\n";
    if (cancelled)
        os << "CANCELLED by the cooperative cancellation flag\n";
    if (faulted) {
        os << (dicCorruption ? "DIC CORRUPTION" : "FAULT") << " at 0x"
           << std::hex << faultPc << std::dec << ": " << faultReason
           << "\n";
    }
    return os.str();
}

std::string
SimStats::toJson() const
{
    std::ostringstream os;
    os << "{";
    os << "\"engine\":\"" << engineName(engine) << "\"";
    os << ",\"cycles\":" << cycles;
    os << ",\"issued\":" << issued;
    os << ",\"apparent\":" << apparent;
    os << ",\"issuedCpi\":" << issuedCpi();
    os << ",\"apparentCpi\":" << apparentCpi();
    os << ",\"branches\":" << branches;
    os << ",\"foldedBranches\":" << foldedBranches;
    os << ",\"condBranches\":" << condBranches;
    os << ",\"resolvedAtIssue\":" << resolvedAtIssue;
    os << ",\"speculated\":" << speculated;
    os << ",\"mispredicts\":" << mispredicts;
    os << ",\"branchDelayCycles\":" << branchDelayCycles;
    os << ",\"squashed\":" << squashed;
    os << ",\"issueStallCycles\":" << issueStallCycles;
    os << ",\"dicMissStallCycles\":" << dicMissStallCycles;
    os << ",\"redirectStallCycles\":" << redirectStallCycles;
    os << ",\"indirectStallCycles\":" << indirectStallCycles;
    os << ",\"dicHits\":" << dicHits;
    os << ",\"dicMisses\":" << dicMisses;
    os << ",\"pduFoldedPairs\":" << pduFoldedPairs;
    os << ",\"pduFills\":" << pduFills;
    os << ",\"memFetches\":" << memFetches;
    os << ",\"stackCacheHits\":" << stackCacheHits;
    os << ",\"stackCacheMisses\":" << stackCacheMisses;
    os << ",\"stackPenaltyCycles\":" << stackPenaltyCycles;
    os << ",\"halted\":" << (halted ? "true" : "false");
    os << ",\"timedOut\":" << (timedOut ? "true" : "false");
    os << ",\"cancelled\":" << (cancelled ? "true" : "false");
    os << ",\"faulted\":" << (faulted ? "true" : "false");
    os << ",\"faultPc\":" << faultPc;
    os << ",\"faultReason\":\"" << util::jsonEscape(faultReason)
       << "\"";
    os << ",\"dicCorruption\":" << (dicCorruption ? "true" : "false");
    os << ",\"opcodeCounts\":[";
    for (std::size_t i = 0; i < opcodeCounts.size(); ++i) {
        if (i)
            os << ",";
        os << opcodeCounts[i];
    }
    os << "]}";
    return os.str();
}

} // namespace crisp
