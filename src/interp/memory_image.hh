/**
 * @file
 * Flat byte-addressable memory image shared by the functional
 * interpreter and the cycle-level simulator.
 */

#ifndef CRISP_INTERP_MEMORY_IMAGE_HH
#define CRISP_INTERP_MEMORY_IMAGE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "isa/program.hh"
#include "isa/types.hh"

namespace crisp
{

/**
 * Little-endian flat memory. Text and data segments are copied in from
 * a Program; the stack occupies the top of the image.
 *
 * A released image's buffer (up to 1 MiB) goes to a stash of at most
 * two per thread, and load() takes one from there before it allocates:
 * a lockstep leg builds two machines per short run, and a fresh image
 * then zero-fills pages that are already mapped instead of faulting in
 * new ones. Under ASan a stashed buffer is poisoned until reused.
 */
class MemoryImage
{
  public:
    MemoryImage() = default;

    /** Construct an image sized and initialized from @p prog. */
    explicit MemoryImage(const Program& prog) { load(prog); }

    MemoryImage(const MemoryImage&) = default;
    MemoryImage(MemoryImage&&) noexcept = default;
    MemoryImage& operator=(const MemoryImage&) = default;
    MemoryImage& operator=(MemoryImage&&) noexcept = default;

    /** Stash the buffer for this thread's next load(); never allocates
     *  or throws. */
    ~MemoryImage();

    /** (Re)initialize from a program: size() becomes prog.memBytes and
     *  every byte outside the text and data segments is zero. */
    void load(const Program& prog);

    Addr size() const { return static_cast<Addr>(bytes_.size()); }

    std::uint8_t
    read8(Addr a) const
    {
        check(a, 1);
        return bytes_[a];
    }

    // Loads/stores memcpy the value on little-endian hosts (a single
    // unaligned machine load after optimization — these sit on the
    // simulator's hot path) and fall back to byte shifts elsewhere.

    std::uint16_t
    read16(Addr a) const
    {
        check(a, 2);
        if constexpr (std::endian::native == std::endian::little) {
            std::uint16_t v;
            std::memcpy(&v, bytes_.data() + a, 2);
            return v;
        }
        return static_cast<std::uint16_t>(bytes_[a]) |
               (static_cast<std::uint16_t>(bytes_[a + 1]) << 8);
    }

    std::uint32_t
    read32(Addr a) const
    {
        check(a, 4);
        if constexpr (std::endian::native == std::endian::little) {
            std::uint32_t v;
            std::memcpy(&v, bytes_.data() + a, 4);
            return v;
        }
        return static_cast<std::uint32_t>(bytes_[a]) |
               (static_cast<std::uint32_t>(bytes_[a + 1]) << 8) |
               (static_cast<std::uint32_t>(bytes_[a + 2]) << 16) |
               (static_cast<std::uint32_t>(bytes_[a + 3]) << 24);
    }

    void
    write32(Addr a, std::uint32_t v)
    {
        check(a, 4);
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(bytes_.data() + a, &v, 4);
            return;
        }
        bytes_[a] = static_cast<std::uint8_t>(v);
        bytes_[a + 1] = static_cast<std::uint8_t>(v >> 8);
        bytes_[a + 2] = static_cast<std::uint8_t>(v >> 16);
        bytes_[a + 3] = static_cast<std::uint8_t>(v >> 24);
    }

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    /** Throw the fault for an access at @p a; kept out of line so the
     *  inlined check() stays small on the hot read/write path. */
    [[noreturn, gnu::cold]] static void outOfRange(Addr a);

    void
    check(Addr a, Addr n) const
    {
        if (a + n > bytes_.size() || a + n < a)
            outOfRange(a);
    }

    std::vector<std::uint8_t> bytes_;
};

} // namespace crisp

#endif // CRISP_INTERP_MEMORY_IMAGE_HH
