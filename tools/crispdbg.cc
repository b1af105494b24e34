/**
 * @file
 * crispdbg — a small interactive debugger for the CRISP pipeline.
 *
 *   crispdbg program.{c,s,obj}
 *
 * Commands (also shown by `h`):
 *   s [n]        step n cycles (default 1), printing the trace line
 *   n [k]        run until k more architectural instructions retire
 *   b <addr>     set a breakpoint on instruction retirement
 *   B            list breakpoints        d <idx>   delete breakpoint
 *   c            continue to breakpoint / halt
 *   p            print machine state     i         full statistics
 *   x <addr> [n] dump n memory words
 *   l [addr]     disassemble around an address (default: IR.Next-PC)
 *   q            quit
 *
 * An address is a symbol name or a whole decimal or 0x-hex number
 * that fits in 32 bits; a count is a whole decimal number of at least
 * 1, and a breakpoint index a whole decimal number. A malformed
 * argument prints the command's usage line and runs nothing. A
 * command that faults (a dump past the end of memory, say) prints the
 * error and the session goes on.
 *
 * Because architectural effects happen at retirement, breakpoints fire
 * with precise state: everything older has executed, nothing younger
 * has.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "sim/cpu.hh"

namespace
{

using namespace crisp;

/** Observer that counts retirements and checks breakpoints. */
struct DebugObserver : ExecObserver
{
    std::set<Addr> breakpoints;
    Addr hitPc = 0;
    bool hit = false;
    std::uint64_t retired = 0;

    void
    onInstruction(Addr pc, Opcode) override
    {
        ++retired;
        if (breakpoints.count(pc)) {
            hit = true;
            hitPc = pc;
        }
    }
};

class Debugger
{
  public:
    explicit Debugger(const Program& prog) : prog_(prog), cpu_(prog)
    {
        cpu_.setTraceSink([this](const std::string& line) {
            if (echoTrace_)
                std::puts(line.c_str());
        });
    }

    void
    repl()
    {
        std::printf("crispdbg: entry at 0x%x; type h for help\n",
                    prog_.entry);
        std::string line;
        while (true) {
            std::printf("(crispdbg) ");
            std::fflush(stdout);
            if (!std::getline(std::cin, line))
                break;
            try {
                if (!dispatch(line))
                    break;
            } catch (const CrispError& e) {
                std::printf("error: %s\n", e.what());
            }
        }
    }

  private:
    /** Parse an address: a symbol name, or all of a decimal or 0x-hex
     *  number no larger than 0xffffffff. */
    bool
    parseAddr(const std::string& tok, Addr& out) const
    {
        if (const auto sym = prog_.lookup(tok)) {
            out = *sym;
            return true;
        }
        const Addr max = 0xffffffff;
        if (tok.starts_with("0x"))
            return cli::parseInt(tok.c_str() + 2, out, 0, max, 16);
        return cli::parseInt(tok.c_str(), out, 0, max);
    }

    /** Read the optional count after a command into @p n, which
     *  keeps its default when there is none. @return false when the
     *  count is not a whole decimal number of at least 1. */
    static bool
    parseCount(std::istream& is, long& n)
    {
        std::string tok;
        return !(is >> tok) ||
               cli::parseInt(tok.c_str(), n, 1,
                             std::numeric_limits<long>::max());
    }

    void
    printState() const
    {
        const SimStats& s = cpu_.stats();
        std::printf("cycle %llu  IR.Next-PC 0x%x  SP 0x%x  Accum %d  "
                    "flag %d  retired %llu\n",
                    static_cast<unsigned long long>(s.cycles),
                    cpu_.nextIssuePc(), cpu_.sp(),
                    static_cast<int>(cpu_.accum()),
                    cpu_.flag() ? 1 : 0,
                    static_cast<unsigned long long>(obs_.retired));
        if (cpu_.halted()) {
            std::printf("machine halted%s\n",
                        s.faulted ? " (FAULT)" : "");
        }
    }

    void
    disassembleAround(Addr at) const
    {
        // Walk from the start of text to find instruction boundaries.
        std::vector<Addr> pcs;
        Addr pc = prog_.textBase;
        while (pc < prog_.textEnd()) {
            pcs.push_back(pc);
            pc += static_cast<Addr>(instructionLength(
                      prog_.parcelAt(pc))) *
                  kParcelBytes;
        }
        std::size_t center = 0;
        for (std::size_t i = 0; i < pcs.size(); ++i) {
            if (pcs[i] <= at)
                center = i;
        }
        const std::size_t begin = center >= 4 ? center - 4 : 0;
        for (std::size_t i = begin;
             i < pcs.size() && i < begin + 9; ++i) {
            const Instruction inst = prog_.fetch(pcs[i]);
            std::printf("%c 0x%05x:  %s\n", pcs[i] == at ? '>' : ' ',
                        pcs[i], inst.toString(pcs[i]).c_str());
        }
    }

    bool
    dispatch(const std::string& line)
    {
        std::istringstream is(line);
        std::string cmd;
        if (!(is >> cmd))
            return true;

        if (cmd == "q")
            return false;
        if (cmd == "h") {
            std::printf(
                "s [n]=step cycles  n [k]=step instructions  c=continue\n"
                "b <sym|addr>=break  B=list  d <idx>=delete\n"
                "p=state  i=stats  x <sym|addr> [n]=dump words\n"
                "l [sym|addr]=disassemble  q=quit\n");
            return true;
        }
        if (cmd == "s") {
            long n = 1;
            if (!parseCount(is, n)) {
                std::printf("usage: s [cycles]\n");
                return true;
            }
            echoTrace_ = true;
            for (long k = 0; k < n && !cpu_.halted(); ++k)
                cpu_.tick(&obs_);
            echoTrace_ = false;
            printState();
            return true;
        }
        if (cmd == "n") {
            long k = 1;
            if (!parseCount(is, k)) {
                std::printf("usage: n [instructions]\n");
                return true;
            }
            const std::uint64_t target =
                obs_.retired + static_cast<std::uint64_t>(k);
            while (!cpu_.halted() && obs_.retired < target)
                cpu_.tick(&obs_);
            printState();
            return true;
        }
        if (cmd == "c") {
            obs_.hit = false;
            while (!cpu_.halted() && !obs_.hit)
                cpu_.tick(&obs_);
            if (obs_.hit)
                std::printf("breakpoint at 0x%x\n", obs_.hitPc);
            printState();
            return true;
        }
        if (cmd == "b") {
            std::string tok;
            Addr a = 0;
            if (is >> tok && parseAddr(tok, a)) {
                obs_.breakpoints.insert(a);
                std::printf("breakpoint #%zu at 0x%x\n",
                            obs_.breakpoints.size(), a);
            } else {
                std::printf("usage: b <symbol|address>\n");
            }
            return true;
        }
        if (cmd == "B") {
            std::size_t i = 0;
            for (Addr a : obs_.breakpoints)
                std::printf("#%zu  0x%x\n", i++, a);
            return true;
        }
        if (cmd == "d") {
            std::string tok;
            std::size_t idx = 0;
            if (is >> tok &&
                cli::parseInt(tok.c_str(), idx, 0,
                              std::numeric_limits<std::size_t>::max()) &&
                idx < obs_.breakpoints.size()) {
                auto it = obs_.breakpoints.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(idx));
                obs_.breakpoints.erase(it);
                std::printf("deleted\n");
            } else {
                std::printf("usage: d <index>\n");
            }
            return true;
        }
        if (cmd == "p") {
            printState();
            return true;
        }
        if (cmd == "i") {
            std::fputs(cpu_.stats().toString().c_str(), stdout);
            return true;
        }
        if (cmd == "x") {
            std::string tok;
            Addr a = 0;
            long n = 4;
            if (!(is >> tok) || !parseAddr(tok, a) || !parseCount(is, n)) {
                std::printf("usage: x <symbol|address> [words]\n");
                return true;
            }
            for (long k = 0; k < n; ++k) {
                const Addr at = a + static_cast<Addr>(k) * kWordBytes;
                std::printf("0x%05x: %d (0x%x)\n", at,
                            static_cast<int>(cpu_.memory().read32(at)),
                            cpu_.memory().read32(at));
            }
            return true;
        }
        if (cmd == "l") {
            std::string tok;
            Addr a = cpu_.nextIssuePc();
            if (is >> tok && !parseAddr(tok, a)) {
                std::printf("usage: l [symbol|address]\n");
                return true;
            }
            disassembleAround(a);
            return true;
        }
        std::printf("unknown command '%s' (h for help)\n", cmd.c_str());
        return true;
    }

    Program prog_;
    CrispCpu cpu_;
    DebugObserver obs_;
    bool echoTrace_ = false;
};

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: crispdbg program.{c,s,obj}\n");
        return 2;
    }
    const std::string input = argv[1];
    try {
        const Program prog = cli::loadProgram(input);
        Debugger dbg(prog);
        dbg.repl();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crispdbg: %s\n", e.what());
        return 1;
    }
    return 0;
}
