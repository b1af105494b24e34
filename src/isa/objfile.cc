/**
 * @file
 * CRISP object file serialization.
 */

#include "objfile.hh"

#include <cstring>
#include <fstream>

namespace crisp
{

namespace
{

constexpr char kMagic[4] = {'C', 'R', 'S', 'P'};
constexpr std::uint32_t kVersion = 1;

void
put32(std::vector<std::uint8_t>& out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
put16(std::vector<std::uint8_t>& out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t>& bytes)
        : bytes_(bytes)
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return bytes_[pos_++];
    }

    std::uint16_t
    u16()
    {
        need(2);
        const std::uint16_t v =
            static_cast<std::uint16_t>(bytes_[pos_]) |
            (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8);
        pos_ += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        need(4);
        const std::uint32_t v =
            static_cast<std::uint32_t>(bytes_[pos_]) |
            (static_cast<std::uint32_t>(bytes_[pos_ + 1]) << 8) |
            (static_cast<std::uint32_t>(bytes_[pos_ + 2]) << 16) |
            (static_cast<std::uint32_t>(bytes_[pos_ + 3]) << 24);
        pos_ += 4;
        return v;
    }

    std::string
    str(std::size_t n)
    {
        need(n);
        std::string s(bytes_.begin() +
                          static_cast<std::ptrdiff_t>(pos_),
                      bytes_.begin() +
                          static_cast<std::ptrdiff_t>(pos_ + n));
        pos_ += n;
        return s;
    }

    std::size_t remaining() const { return bytes_.size() - pos_; }

  private:
    void
    need(std::size_t n) const
    {
        if (n > remaining())
            throw CrispError("object file truncated");
    }

    const std::vector<std::uint8_t>& bytes_;
    std::size_t pos_ = 0;
};

/** Largest memory image a loaded object may request (sanity bound: a
 *  corrupted header must raise CrispError, not exhaust the heap). */
constexpr std::uint64_t kMaxLoadableMemBytes = 1u << 30;

} // namespace

std::vector<std::uint8_t>
saveObject(const Program& prog)
{
    std::vector<std::uint8_t> out(kMagic, kMagic + 4);
    put32(out, kVersion);
    put32(out, prog.textBase);
    put32(out, prog.entry);
    put32(out, prog.dataBase);
    put32(out, prog.memBytes);
    put32(out, static_cast<std::uint32_t>(prog.text.size()));
    put32(out, static_cast<std::uint32_t>(prog.data.size()));
    put32(out, static_cast<std::uint32_t>(prog.symbols.size()));
    for (Parcel p : prog.text)
        put16(out, p);
    out.insert(out.end(), prog.data.begin(), prog.data.end());
    for (const auto& [name, sym] : prog.symbols) {
        out.push_back(static_cast<std::uint8_t>(sym.kind));
        put16(out, static_cast<std::uint16_t>(name.size()));
        out.insert(out.end(), name.begin(), name.end());
        put32(out, sym.value);
    }
    return out;
}

Program
loadObject(const std::vector<std::uint8_t>& bytes)
{
    Reader r(bytes);
    char magic[4];
    for (char& c : magic)
        c = static_cast<char>(r.u8());
    if (std::memcmp(magic, kMagic, 4) != 0)
        throw CrispError("not a CRISP object file");
    const std::uint32_t version = r.u32();
    if (version != kVersion) {
        throw CrispError("unsupported object version " +
                         std::to_string(version));
    }

    Program prog;
    prog.textBase = r.u32();
    prog.entry = r.u32();
    prog.dataBase = r.u32();
    prog.memBytes = r.u32();
    const std::uint32_t text_len = r.u32();
    const std::uint32_t data_len = r.u32();
    const std::uint32_t sym_count = r.u32();

    // Validate every declared size against what the file actually
    // holds BEFORE reserving anything: a bit-flipped length field must
    // produce a clean CrispError, never an allocation explosion. Each
    // symbol record is at least 7 bytes (kind + name length + value).
    const std::uint64_t declared = 2ull * text_len + data_len +
                                   7ull * sym_count;
    if (declared > r.remaining()) {
        throw CrispError(
            "object file truncated: declared section sizes exceed "
            "the bytes present");
    }
    if (prog.memBytes > kMaxLoadableMemBytes) {
        throw CrispError("object file corrupt: unreasonable memory "
                         "image size " +
                         std::to_string(prog.memBytes));
    }
    if (prog.textBase % kParcelBytes != 0) {
        throw CrispError(
            "object file corrupt: text base is not parcel aligned");
    }
    if (prog.textBase + 2ull * text_len > prog.memBytes ||
        prog.dataBase + static_cast<std::uint64_t>(data_len) >
            prog.memBytes) {
        throw CrispError("object file corrupt: segments do not fit "
                         "in the declared memory image");
    }

    prog.text.reserve(text_len);
    for (std::uint32_t i = 0; i < text_len; ++i)
        prog.text.push_back(r.u16());
    prog.data.reserve(data_len);
    for (std::uint32_t i = 0; i < data_len; ++i)
        prog.data.push_back(r.u8());
    for (std::uint32_t i = 0; i < sym_count; ++i) {
        const std::uint8_t kind_raw = r.u8();
        if (kind_raw > static_cast<std::uint8_t>(Symbol::Kind::kLocalSlot)) {
            throw CrispError("object file corrupt: bad symbol kind " +
                             std::to_string(kind_raw));
        }
        const auto kind = static_cast<Symbol::Kind>(kind_raw);
        const std::uint16_t len = r.u16();
        const std::string name = r.str(len);
        const std::uint32_t value = r.u32();
        prog.symbols[name] = {kind, value};
    }
    return prog;
}

void
saveObjectFile(const Program& prog, const std::string& path)
{
    const auto bytes = saveObject(prog);
    std::ofstream f(path, std::ios::binary);
    if (!f)
        throw CrispError("cannot open for writing: " + path);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f)
        throw CrispError("write failed: " + path);
}

Program
loadObjectFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw CrispError("cannot open: " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    return loadObject(bytes);
}

} // namespace crisp
