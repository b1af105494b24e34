/**
 * @file
 * Command-line helpers shared by the tools: the `--key=value` matcher,
 * a strict numeric parser, the `--fold=` policy names and the input
 * file loader. A numeric flag reads its whole value with
 * std::from_chars and checks a range, so a malformed or out-of-range
 * value is a usage error (exit 2), never a silent 0 or a truncated
 * prefix.
 */

#ifndef CRISP_TOOLS_CLI_HH
#define CRISP_TOOLS_CLI_HH

#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>

#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "isa/objfile.hh"
#include "sim/config.hh"

namespace crisp::cli
{

/** The text after @p key (e.g. "--dic=") when @p arg starts with it,
 *  else null. */
inline const char*
flag(const std::string& arg, const char* key)
{
    const std::size_t n = std::strlen(key);
    return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
}

/**
 * Parse all of @p text as an integer in @p base (decimal by default)
 * in [@p lo, @p hi] into @p out. @return false, leaving @p out
 * untouched, when the text is empty, has anything but digits (a sign
 * only where T is signed), or lies outside the range.
 */
template <class T>
bool
parseInt(const char* text, T& out, std::type_identity_t<T> lo,
         std::type_identity_t<T> hi, int base = 10)
{
    const char* end = text + std::strlen(text);
    T v{};
    const auto [stop, ec] = std::from_chars(text, end, v, base);
    if (ec != std::errc{} || stop != end || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/** Parse a `--fold=` value (none|crisp|all) into @p out. @return
 *  false, leaving @p out untouched, on any other text. */
inline bool
parseFold(const char* text, FoldPolicy& out)
{
    const std::string v = text;
    if (v == "none")
        out = FoldPolicy::kNone;
    else if (v == "crisp")
        out = FoldPolicy::kCrisp;
    else if (v == "all")
        out = FoldPolicy::kAll;
    else
        return false;
    return true;
}

/** The whole text of @p path. @throw CrispError "cannot open: <path>". */
inline std::string
readFile(const std::string& path)
{
    std::ifstream f(path);
    if (!f)
        throw CrispError("cannot open: " + path);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/**
 * Load the program in @p path by its name: a `.obj` object file, `.s`
 * or `.asm` assembly, else CRISP-C source compiled with @p opts.
 */
inline Program
loadProgram(const std::string& path, const cc::CompileOptions& opts = {})
{
    if (path.ends_with(".obj"))
        return loadObjectFile(path);
    if (path.ends_with(".s") || path.ends_with(".asm"))
        return assemble(readFile(path));
    return cc::compile(readFile(path), opts).program;
}

} // namespace crisp::cli

#endif // CRISP_TOOLS_CLI_HH
