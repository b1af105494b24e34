/**
 * @file
 * crispasm — assemble CRISP assembly to an object file, or disassemble
 * an object file back to text.
 *
 *   crispasm input.s  [-o out.obj]      assemble
 *   crispasm -d input.obj               disassemble
 */

#include <cstdio>
#include <string>

#include "asm/assembler.hh"
#include "cli.hh"
#include "isa/objfile.hh"

int
main(int argc, char** argv)
{
    using namespace crisp;

    std::string input;
    std::string output;
    bool disassemble_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "-d") {
            disassemble_mode = true;
        } else if (a == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "usage: crispasm input.s [-o out.obj] "
                                 "| crispasm -d input.obj\n");
            return 2;
        } else {
            input = a;
        }
    }
    if (input.empty()) {
        std::fprintf(stderr, "crispasm: no input file\n");
        return 2;
    }

    try {
        if (disassemble_mode) {
            const Program prog = loadObjectFile(input);
            std::fputs(prog.disassemble().c_str(), stdout);
            return 0;
        }
        const Program prog = assemble(cli::readFile(input));
        if (output.empty()) {
            std::fputs(prog.disassemble().c_str(), stdout);
        } else {
            saveObjectFile(prog, output);
            std::fprintf(stderr, "wrote %s (%zu parcels)\n",
                         output.c_str(), prog.text.size());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "crispasm: %s\n", e.what());
        return 1;
    }
    return 0;
}
