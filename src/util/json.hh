/**
 * @file
 * JSON string escaping shared by every JSON writer in the tree
 * (SimStats, the lint JSON and SARIF reports, the optimizer report),
 * and the well-formedness check their tests and bench_perf run on the
 * output.
 */

#ifndef CRISP_UTIL_JSON_HH
#define CRISP_UTIL_JSON_HH

#include <cstdlib>
#include <cstring>
#include <string>

namespace crisp::util
{

/** @p s as the body of a JSON string: quotes, backslashes and every
 *  control character escaped, everything else passed through. */
inline std::string
jsonEscape(const std::string& s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xf];
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

namespace detail
{

/** Recursive-descent reader behind jsonValid. */
struct JsonReader
{
    const std::string& s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n' ||
                                s[i] == '\t' || s[i] == '\r'))
            ++i;
    }

    /** Skip whitespace, then consume @p c if it is next. */
    bool
    eat(char c)
    {
        ws();
        if (i >= s.size() || s[i] != c)
            return false;
        ++i;
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        for (; i < s.size() && s[i] != '"'; ++i) {
            if (static_cast<unsigned char>(s[i]) < 0x20)
                return false; // raw control characters must be escaped
            if (s[i] == '\\')
                ++i;
        }
        return i++ < s.size();
    }

    /** The members of an object (@p keyed) or array, after its
     *  opening bracket. */
    bool
    members(char close, bool keyed)
    {
        if (eat(close))
            return true;
        do {
            if (keyed && !(string() && eat(':')))
                return false;
            if (!value())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    value()
    {
        if (eat('{'))
            return members('}', true);
        if (eat('['))
            return members(']', false);
        if (i < s.size() && s[i] == '"')
            return string();
        for (const char* word : {"true", "false", "null"}) {
            const std::size_t n = std::strlen(word);
            if (s.compare(i, n, word) == 0) {
                i += n;
                return true;
            }
        }
        if (i >= s.size() || (s[i] != '-' && (s[i] < '0' || s[i] > '9')))
            return false;
        const char* start = s.c_str() + i;
        char* end = nullptr;
        std::strtod(start, &end);
        i += static_cast<std::size_t>(end - start);
        return end != start;
    }
};

} // namespace detail

/** Whether @p text is exactly one well-formed JSON value. */
inline bool
jsonValid(const std::string& text)
{
    detail::JsonReader r{text};
    if (!r.value())
        return false;
    r.ws();
    return r.i == text.size();
}

} // namespace crisp::util

#endif // CRISP_UTIL_JSON_HH
