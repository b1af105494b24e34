/**
 * @file
 * Assembler: text parsing, program building and branch relaxation.
 */

#include "assembler.hh"

#include <cctype>
#include <map>
#include <sstream>
#include <unordered_map>

namespace crisp
{

namespace
{

[[noreturn]] void
asmError(int line, const std::string& msg)
{
    throw CrispError("asm line " + std::to_string(line) + ": " + msg);
}

std::string
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

bool
isIdent(const std::string& s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
        return false;
    for (char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            return false;
    }
    return true;
}

bool
parseInt(const std::string& s, std::int64_t& out)
{
    if (s.empty())
        return false;
    try {
        std::size_t pos = 0;
        out = std::stoll(s, &pos, 0);
        return pos == s.size();
    } catch (...) {
        return false;
    }
}

const std::unordered_map<std::string, Opcode>&
mnemonicTable()
{
    static const std::unordered_map<std::string, Opcode> table = {
        {"nop", Opcode::kNop},       {"halt", Opcode::kHalt},
        {"add", Opcode::kAdd},       {"sub", Opcode::kSub},
        {"and", Opcode::kAnd},       {"or", Opcode::kOr},
        {"xor", Opcode::kXor},       {"shl", Opcode::kShl},
        {"shr", Opcode::kShr},       {"mul", Opcode::kMul},
        {"div", Opcode::kDiv},       {"rem", Opcode::kRem},
        {"add3", Opcode::kAdd3},     {"sub3", Opcode::kSub3},
        {"and3", Opcode::kAnd3},     {"or3", Opcode::kOr3},
        {"xor3", Opcode::kXor3},     {"mul3", Opcode::kMul3},
        {"mov", Opcode::kMov},
        {"cmp.=", Opcode::kCmpEq},   {"cmp.!=", Opcode::kCmpNe},
        {"cmp.s<", Opcode::kCmpLt},  {"cmp.s<=", Opcode::kCmpLe},
        {"cmp.s>", Opcode::kCmpGt},  {"cmp.s>=", Opcode::kCmpGe},
        {"cmp.u<", Opcode::kCmpLtU}, {"cmp.u>=", Opcode::kCmpGeU},
        {"enter", Opcode::kEnter},   {"return", Opcode::kReturn},
        {"leave", Opcode::kLeave},
        {"jmp", Opcode::kJmp},       {"call", Opcode::kCall},
    };
    return table;
}

} // namespace

// AsmBuilder --------------------------------------------------------------

void
AsmBuilder::label(const std::string& name)
{
    Item item;
    item.kind = Item::Kind::kLabel;
    item.name = name;
    items_.push_back(std::move(item));
}

void
AsmBuilder::emit(const Instruction& inst)
{
    Item item;
    item.kind = Item::Kind::kInst;
    item.inst = inst;
    items_.push_back(std::move(item));
}

void
AsmBuilder::branch(Opcode op, const std::string& target, bool predict_taken)
{
    if (!isBranch(op))
        throw CrispError("AsmBuilder::branch: not a branch opcode");
    Item item;
    item.kind = Item::Kind::kBranch;
    item.name = target;
    item.inst.op = op;
    item.inst.predictTaken = predict_taken;
    item.longBranch = (op == Opcode::kCall);
    items_.push_back(std::move(item));
}

void
AsmBuilder::branchIndirect(Opcode op, BranchMode bmode, std::uint32_t spec,
                           bool predict_taken)
{
    emit(Instruction::branchFar(op, bmode, spec, predict_taken));
}

void
AsmBuilder::global(const std::string& name, Word init)
{
    globals_.emplace_back(name, std::vector<Word>{init});
}

void
AsmBuilder::space(const std::string& name, Addr words)
{
    globals_.emplace_back(name, std::vector<Word>(words, 0));
}

void
AsmBuilder::labelTable(const std::string& name,
                       std::vector<std::string> labels)
{
    globals_.emplace_back(name, std::vector<Word>(labels.size(), 0));
    tableFixups_.emplace_back(name, std::move(labels));
}

Operand
AsmBuilder::globalOperand(const std::string& name) const
{
    Addr a = kDataBase;
    for (const auto& [gname, init] : globals_) {
        if (gname == name)
            return Operand::abs(a);
        a += static_cast<Addr>(init.size()) * kWordBytes;
    }
    throw CrispError("unknown global: " + name);
}

Program
AsmBuilder::link() const
{
    // Data layout first: global addresses are independent of text size.
    std::map<std::string, Addr> global_addr;
    Addr daddr = kDataBase;
    std::vector<std::uint8_t> data;
    for (const auto& [name, init] : globals_) {
        if (global_addr.count(name))
            throw CrispError("duplicate global: " + name);
        global_addr[name] = daddr;
        for (Word w : init) {
            const auto u = static_cast<std::uint32_t>(w);
            data.push_back(static_cast<std::uint8_t>(u));
            data.push_back(static_cast<std::uint8_t>(u >> 8));
            data.push_back(static_cast<std::uint8_t>(u >> 16));
            data.push_back(static_cast<std::uint8_t>(u >> 24));
        }
        daddr += static_cast<Addr>(init.size()) * kWordBytes;
    }

    // Iterative branch relaxation: start with every PC-relative branch
    // short; widen any whose displacement does not fit; repeat to a
    // fixpoint (widening is monotonic, so this terminates).
    std::vector<Item> items = items_;
    std::map<std::string, Addr> label_addr;
    for (int round = 0; ; ++round) {
        if (round > 64)
            throw CrispError("branch relaxation did not converge");

        Addr pc = kTextBase;
        for (const auto& item : items) {
            switch (item.kind) {
              case Item::Kind::kLabel:
                label_addr[item.name] = pc;
                break;
              case Item::Kind::kBranch:
                pc += (item.longBranch ? 3 : 1) * kParcelBytes;
                break;
              case Item::Kind::kInst:
                pc += item.inst.lengthBytes();
                break;
            }
        }

        bool changed = false;
        pc = kTextBase;
        for (auto& item : items) {
            if (item.kind == Item::Kind::kLabel)
                continue;
            if (item.kind == Item::Kind::kBranch && !item.longBranch) {
                const auto it = label_addr.find(item.name);
                if (it == label_addr.end()) {
                    asmError(item.line,
                             "undefined label: " + item.name);
                }
                const auto disp = static_cast<std::int32_t>(
                    it->second - pc);
                if (!fitsShortBranch(disp)) {
                    item.longBranch = true;
                    changed = true;
                }
            }
            pc += (item.kind == Item::Kind::kBranch
                       ? (item.longBranch ? 3 : 1) * kParcelBytes
                       : item.inst.lengthBytes());
        }
        if (!changed)
            break;
    }

    // Emission.
    Program prog;
    prog.data = std::move(data);
    Addr pc = kTextBase;
    for (const auto& item : items) {
        switch (item.kind) {
          case Item::Kind::kLabel:
            prog.symbols[item.name] = {Symbol::Kind::kLabel, pc};
            break;
          case Item::Kind::kBranch: {
            const Addr target = label_addr.at(item.name);
            Instruction b;
            if (item.longBranch) {
                b = Instruction::branchFar(item.inst.op, BranchMode::kAbs,
                                           target, item.inst.predictTaken);
            } else {
                b = Instruction::branchRel(
                    item.inst.op, static_cast<std::int32_t>(target - pc),
                    item.inst.predictTaken);
            }
            pc += static_cast<Addr>(encodeAppend(b, prog.text)) *
                  kParcelBytes;
            break;
          }
          case Item::Kind::kInst:
            pc += static_cast<Addr>(encodeAppend(item.inst, prog.text)) *
                  kParcelBytes;
            break;
        }
    }

    for (const auto& [name, a] : global_addr)
        prog.symbols[name] = {Symbol::Kind::kGlobal, a};

    // Jump-table fixups: write final label addresses into the data
    // image.
    for (const auto& [gname, labels] : tableFixups_) {
        const Addr base = global_addr.at(gname) - kDataBase;
        for (std::size_t i = 0; i < labels.size(); ++i) {
            const auto it = label_addr.find(labels[i]);
            if (it == label_addr.end())
                throw CrispError("label table references undefined "
                                 "label: " + labels[i]);
            const std::uint32_t v = it->second;
            const std::size_t at = base + i * kWordBytes;
            prog.data[at] = static_cast<std::uint8_t>(v);
            prog.data[at + 1] = static_cast<std::uint8_t>(v >> 8);
            prog.data[at + 2] = static_cast<std::uint8_t>(v >> 16);
            prog.data[at + 3] = static_cast<std::uint8_t>(v >> 24);
        }
    }

    if (!entry_.empty()) {
        const auto it = label_addr.find(entry_);
        if (it == label_addr.end())
            throw CrispError("undefined entry label: " + entry_);
        prog.entry = it->second;
    } else {
        prog.entry = kTextBase;
    }
    return prog;
}

// Textual assembler -------------------------------------------------------

namespace
{

/** Per-file parser state. */
struct Parser
{
    AsmBuilder builder;
    std::map<std::string, std::int32_t> locals;

    Operand
    parseOperand(const std::string& text, int line)
    {
        std::string s = trim(text);
        if (s.empty())
            asmError(line, "empty operand");

        if (s == "Accum" || s == "accum")
            return Operand::accum();

        std::int64_t v = 0;
        if (parseInt(s, v))
            return Operand::imm(static_cast<std::int32_t>(v));

        if (s[0] == '@') {
            if (!parseInt(s.substr(1), v))
                asmError(line, "bad absolute operand: " + s);
            return Operand::abs(static_cast<Addr>(v));
        }

        if (s.rfind("sp[", 0) == 0 && s.back() == ']') {
            if (!parseInt(s.substr(3, s.size() - 4), v))
                asmError(line, "bad stack operand: " + s);
            return Operand::stack(static_cast<std::int32_t>(v));
        }

        if (s.front() == '[' && s.back() == ']') {
            const std::string inner = trim(s.substr(1, s.size() - 2));
            if (inner.rfind("sp[", 0) == 0 && inner.back() == ']') {
                if (!parseInt(inner.substr(3, inner.size() - 4), v))
                    asmError(line, "bad indirect operand: " + s);
                return Operand::ind(static_cast<std::int32_t>(v));
            }
            const auto it = locals.find(inner);
            if (it == locals.end())
                asmError(line, "indirect via unknown local: " + inner);
            return Operand::ind(it->second);
        }

        if (isIdent(s)) {
            const auto it = locals.find(s);
            if (it != locals.end())
                return Operand::stack(it->second);
            try {
                return builder.globalOperand(s);
            } catch (const CrispError&) {
                asmError(line, "unknown identifier: " + s);
            }
        }
        asmError(line, "cannot parse operand: " + s);
    }
};

/** Strip comments and return trimmed line content. */
std::string
cleanLine(std::string_view raw)
{
    std::string s(raw);
    const auto semi = s.find_first_of(";#");
    if (semi != std::string::npos)
        s.resize(semi);
    return trim(s);
}

} // namespace

Program
assemble(std::string_view source)
{
    // First scan: data directives and entry, so that global addresses
    // are known before instruction operands are parsed.
    Parser p;
    {
        std::istringstream in{std::string(source)};
        std::string raw;
        int line = 0;
        while (std::getline(in, raw)) {
            ++line;
            std::string s = cleanLine(raw);
            if (s.rfind(".global", 0) == 0) {
                std::istringstream ls(s.substr(7));
                std::string name;
                std::int64_t init = 0;
                ls >> name;
                if (!isIdent(name))
                    asmError(line, "bad .global name");
                std::string init_s;
                if (ls >> init_s && !parseInt(init_s, init))
                    asmError(line, "bad .global initializer");
                p.builder.global(name, static_cast<Word>(init));
            } else if (s.rfind(".space", 0) == 0) {
                std::istringstream ls(s.substr(6));
                std::string name;
                std::int64_t words = 0;
                std::string words_s;
                ls >> name >> words_s;
                if (!isIdent(name) || !parseInt(words_s, words) ||
                    words <= 0) {
                    asmError(line, "bad .space directive");
                }
                p.builder.space(name, static_cast<Addr>(words));
            } else if (s.rfind(".table", 0) == 0) {
                std::istringstream ls(s.substr(6));
                std::string name;
                ls >> name;
                if (!isIdent(name))
                    asmError(line, "bad .table name");
                std::vector<std::string> labels;
                std::string lab;
                while (ls >> lab) {
                    if (!isIdent(lab))
                        asmError(line, "bad .table label: " + lab);
                    labels.push_back(lab);
                }
                if (labels.empty())
                    asmError(line, ".table needs at least one label");
                p.builder.labelTable(name, std::move(labels));
            } else if (s.rfind(".entry", 0) == 0) {
                const std::string name = trim(s.substr(6));
                if (!isIdent(name))
                    asmError(line, "bad .entry label");
                p.builder.entry(name);
            }
        }
    }

    // Second scan: labels, .local bindings and instructions, in order.
    std::istringstream in{std::string(source)};
    std::string raw;
    int line = 0;
    while (std::getline(in, raw)) {
        ++line;
        std::string s = cleanLine(raw);
        if (s.empty())
            continue;
        if (s[0] == '.') {
            if (s.rfind(".local", 0) == 0 &&
                s.rfind(".locals", 0) != 0) {
                std::istringstream ls(s.substr(6));
                std::string name;
                std::string slot_s;
                std::int64_t slot = 0;
                ls >> name >> slot_s;
                if (!isIdent(name) || !parseInt(slot_s, slot) || slot < 0)
                    asmError(line, "bad .local directive");
                p.locals[name] = static_cast<std::int32_t>(slot);
            } else if (s == ".clearlocals") {
                p.locals.clear();
            }
            // .global/.space/.entry were handled in the first scan.
            continue;
        }

        // Leading labels (possibly several, possibly with an
        // instruction on the same line).
        while (true) {
            const auto colon = s.find(':');
            if (colon == std::string::npos)
                break;
            const std::string head = trim(s.substr(0, colon));
            if (!isIdent(head))
                break; // the ':' belongs to something else (not a label)
            p.builder.label(head);
            s = trim(s.substr(colon + 1));
        }
        if (s.empty())
            continue;

        // Mnemonic and operand list.
        const auto sp = s.find_first_of(" \t");
        std::string mnem = (sp == std::string::npos) ? s : s.substr(0, sp);
        std::string rest =
            (sp == std::string::npos) ? "" : trim(s.substr(sp + 1));

        // Conditional branch mnemonics with a prediction suffix.
        bool predict = false;
        Opcode op = Opcode::kNop;
        bool is_cond = false;
        auto match_cond = [&](const std::string& base, Opcode o) {
            if (mnem == base || mnem == base + "y" || mnem == base + "n") {
                op = o;
                is_cond = true;
                predict = (mnem == base + "y");
                return true;
            }
            return false;
        };
        if (!match_cond("iftjmp", Opcode::kIfTJmp) &&
            !match_cond("iffjmp", Opcode::kIfFJmp)) {
            const auto it = mnemonicTable().find(mnem);
            if (it == mnemonicTable().end())
                asmError(line, "unknown mnemonic: " + mnem);
            op = it->second;
        }

        if (isBranch(op)) {
            if (rest.empty())
                asmError(line, "branch needs a target");
            if (rest[0] == '*') {
                const std::string t = trim(rest.substr(1));
                if (t.rfind("sp[", 0) == 0 && t.back() == ']') {
                    std::int64_t slot = 0;
                    if (!parseInt(t.substr(3, t.size() - 4), slot))
                        asmError(line, "bad indirect branch: " + rest);
                    p.builder.branchIndirect(
                        op, BranchMode::kIndSp,
                        static_cast<std::uint32_t>(slot), predict);
                } else if (isIdent(t)) {
                    const Operand g = p.builder.globalOperand(t);
                    p.builder.branchIndirect(
                        op, BranchMode::kIndAbs,
                        static_cast<std::uint32_t>(g.value), predict);
                } else {
                    asmError(line, "bad indirect branch target: " + rest);
                }
            } else if (isIdent(rest)) {
                p.builder.branch(op, rest, predict);
            } else {
                asmError(line, "bad branch target: " + rest);
            }
            continue;
        }

        if (op == Opcode::kEnter || op == Opcode::kReturn ||
            op == Opcode::kLeave) {
            std::int64_t words = 0;
            if (!parseInt(rest, words) || words < 0)
                asmError(line, "bad frame size: " + rest);
            Instruction fi;
            if (op == Opcode::kEnter)
                fi = Instruction::enter(static_cast<std::int32_t>(words));
            else if (op == Opcode::kLeave)
                fi = Instruction::leave(static_cast<std::int32_t>(words));
            else
                fi = Instruction::ret(static_cast<std::int32_t>(words));
            p.builder.emit(fi);
            continue;
        }

        if (op == Opcode::kNop || op == Opcode::kHalt) {
            p.builder.emit(op == Opcode::kNop ? Instruction::nop()
                                              : Instruction::halt());
            continue;
        }

        // Two-operand instruction.
        const auto comma = rest.find(',');
        if (comma == std::string::npos)
            asmError(line, "expected two operands: " + s);
        const Operand a = p.parseOperand(rest.substr(0, comma), line);
        const Operand b = p.parseOperand(rest.substr(comma + 1), line);

        if (isAlu2(op) || op == Opcode::kMov) {
            if (!a.isWritable())
                asmError(line, "destination not writable: " + s);
        }
        p.builder.emit(Instruction::alu(op, a, b));
    }

    return p.builder.link();
}

} // namespace crisp
