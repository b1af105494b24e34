/**
 * @file
 * Translation validator: cost monotonicity + observable equivalence.
 */

#include "tv.hh"

#include <sstream>

#include "interp/interpreter.hh"
#include "session.hh"

namespace crisp::analysis
{

namespace
{

std::size_t
countInstructions(const Program& prog)
{
    std::size_t n = 0;
    Addr pc = prog.textBase;
    while (pc < prog.textEnd()) {
        const int len = instructionLength(prog.parcelAt(pc));
        if (len <= 0)
            break;
        pc += static_cast<Addr>(len) * kParcelBytes;
        ++n;
    }
    return n;
}

std::string
globalNameAt(const Program& prog, Addr a)
{
    for (const auto& [name, sym] : prog.symbols) {
        if (sym.kind == Symbol::Kind::kGlobal && sym.value == a)
            return name;
    }
    return "";
}

/**
 * Does some label map @p want in before to @p got in after? The data
 * words are compared with label addresses as unsigned 32-bit values.
 */
bool
relocatedLabel(const Program& before, const Program& after, Addr want,
               Addr got)
{
    for (const auto& [name, sym] : before.symbols) {
        if (sym.kind != Symbol::Kind::kLabel || sym.value != want)
            continue;
        const auto it = after.symbols.find(name);
        if (it != after.symbols.end() &&
            it->second.kind == Symbol::Kind::kLabel &&
            it->second.value == got) {
            return true;
        }
    }
    return false;
}

} // namespace

TvReport
validateRewrite(const Program& before, const Program& after,
                const std::vector<std::pair<Addr, Addr>>& sitePairs,
                const TvOptions& opts)
{
    TvReport r;
    const auto fail = [&](const std::string& what) {
        r.ok = false;
        r.problems.push_back(what);
    };

    // 1. Static instruction count must not grow.
    r.instrBefore = countInstructions(before);
    r.instrAfter = countInstructions(after);
    if (r.instrAfter > r.instrBefore) {
        std::ostringstream os;
        os << "tv: instruction count grew " << r.instrBefore << " -> "
           << r.instrAfter;
        fail(os.str());
    }

    // 2./3. Per-site and whole-envelope cost monotonicity, under the
    // default options' static-bit prediction. Target-set metadata
    // never feeds a bound, so no other product is computed.
    const CostSummary cost_before = AnalysisSession(before).cost();
    const CostSummary cost_after = AnalysisSession(after).cost();
    for (const auto& [pc, c] : cost_before.sites)
        r.envelopeHiBefore += static_cast<std::uint64_t>(c.bound.hi);
    for (const auto& [pc, c] : cost_after.sites)
        r.envelopeHiAfter += static_cast<std::uint64_t>(c.bound.hi);

    for (const auto& [bpc, apc] : sitePairs) {
        const SiteCost* cb = cost_before.find(bpc);
        const SiteCost* ca = cost_after.find(apc);
        if (cb == nullptr || ca == nullptr) {
            std::ostringstream os;
            os << "tv: matched site pair " << bpc << " -> " << apc
               << " missing from the " << (cb == nullptr ? "before" : "after")
               << " cost table";
            fail(os.str());
            continue;
        }
        ++r.sitesMatched;
        if (ca->bound.hi > cb->bound.hi) {
            std::ostringstream os;
            os << "tv: site " << bpc << " -> " << apc
               << " delay bound worsened [" << cb->bound.lo << ","
               << cb->bound.hi << "] -> [" << ca->bound.lo << ","
               << ca->bound.hi << "]";
            fail(os.str());
        } else if (ca->bound.hi < cb->bound.hi) {
            ++r.sitesImproved;
        }
    }
    if (r.envelopeHiAfter > r.envelopeHiBefore) {
        std::ostringstream os;
        os << "tv: cost envelope grew " << r.envelopeHiBefore << " -> "
           << r.envelopeHiAfter;
        fail(os.str());
    }

    // 4. Observable equivalence: accumulator + SP + data segment.
    if (!opts.semantic)
        return r;
    if (before.data.size() != after.data.size() ||
        before.dataBase != after.dataBase) {
        fail("tv: data segment layout changed");
        return r;
    }
    Interpreter ib(before);
    ib.run(opts.maxSteps);
    if (!ib.halted()) {
        r.notes.push_back(
            "tv: equivalence inconclusive (before side exceeded the "
            "step budget)");
        return r;
    }
    Interpreter ia(after);
    ia.run(opts.maxSteps);
    if (!ia.halted()) {
        // The rewrite only removes or simplifies work, so the after
        // side halting later than the budget that sufficed before is a
        // genuine divergence.
        fail("tv: after side did not halt within the step budget that "
             "sufficed for the before side");
        return r;
    }
    r.semanticChecked = true;
    if (ia.accum() != ib.accum()) {
        std::ostringstream os;
        os << "tv: accumulator diverged: expected " << ib.accum()
           << ", got " << ia.accum();
        r.counterexample = os.str();
        fail(os.str());
        return r;
    }
    if (ia.sp() != ib.sp()) {
        std::ostringstream os;
        os << "tv: SP diverged: expected " << ib.sp() << ", got "
           << ia.sp();
        r.counterexample = os.str();
        fail(os.str());
        return r;
    }
    for (Addr a = before.dataBase;
         a + kWordBytes <=
         before.dataBase + static_cast<Addr>(before.data.size());
         a += kWordBytes) {
        const Word want = ib.memory().read32(a);
        const Word got = ia.memory().read32(a);
        if (want == got)
            continue;
        // Jump-table entries are relocated case-label addresses: a
        // rewrite that moves text legitimately changes the stored
        // word. Accept the difference only when the word is untouched
        // on both sides (final value == its own load image) and the
        // two values name the same label in their respective symbol
        // tables — a relocated constant, not a divergence. A dropped
        // store can never slip through: the before side's final value
        // would differ from its load image.
        const auto w0 = before.dataWord(a);
        const auto w1 = after.dataWord(a);
        if (w0 && w1 && want == *w0 && got == *w1 &&
            relocatedLabel(before, after, static_cast<Addr>(want),
                           static_cast<Addr>(got))) {
            continue;
        }
        std::ostringstream os;
        os << "tv: data word @" << a;
        const std::string name = globalNameAt(before, a);
        if (!name.empty())
            os << " (" << name << ")";
        os << " diverged: expected " << want << ", got " << got;
        r.counterexample = os.str();
        fail(os.str());
        return r;
    }
    return r;
}

} // namespace crisp::analysis
