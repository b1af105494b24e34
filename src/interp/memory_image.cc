/**
 * @file
 * Program loading into a flat memory image, and the per-thread stash
 * of released image buffers that loading reuses.
 */

#include "memory_image.hh"

#include <array>

#include <sanitizer/asan_interface.h>

namespace crisp
{

namespace
{

/** Buffers larger than this are freed, so crispd's larger admitted
 *  images are not hoarded; a thread keeps at most kStashSlots of them. */
constexpr std::size_t kStashMaxBytes = std::size_t{1} << 20;

/** A lockstep leg, crisptorture's oracle leg and the translation
 *  validator each hold two machines at once. */
constexpr std::size_t kStashSlots = 2;

/** Whether this thread's stash exists. Trivially destructible, so
 *  reading it never constructs the stash or registers its destructor:
 *  an image released before the thread's first load(), or after the
 *  stash died at thread exit, is simply freed. */
enum class StashState : std::uint8_t { kUnborn, kLive, kGone };
thread_local StashState stashState = StashState::kUnborn;

struct Stash
{
    Stash() { stashState = StashState::kLive; }
    ~Stash() { stashState = StashState::kGone; }

    std::array<std::vector<std::uint8_t>, kStashSlots> slots;
};

thread_local Stash stash;

} // namespace

MemoryImage::~MemoryImage()
{
    const std::size_t cap = bytes_.capacity();
    if (stashState != StashState::kLive || cap == 0 || cap > kStashMaxBytes)
        return;
    for (auto& slot : stash.slots) {
        if (slot.capacity() == 0) {
            ASAN_POISON_MEMORY_REGION(bytes_.data(), cap);
            slot = std::move(bytes_);
            return;
        }
    }
}

void
MemoryImage::load(const Program& prog)
{
    if (bytes_.capacity() < prog.memBytes &&
        stashState != StashState::kGone) {
        for (auto& slot : stash.slots) {
            if (slot.capacity() >= prog.memBytes) {
                ASAN_UNPOISON_MEMORY_REGION(slot.data(), slot.capacity());
                bytes_ = std::move(slot);
                break;
            }
        }
    }
    // assign, not resize: a stashed buffer still holds its last run.
    bytes_.assign(prog.memBytes, 0);

    const Addr text_bytes =
        static_cast<Addr>(prog.text.size()) * kParcelBytes;
    if (prog.textBase + text_bytes > prog.memBytes)
        throw CrispError("text segment does not fit in memory");
    for (std::size_t i = 0; i < prog.text.size(); ++i) {
        const Parcel p = prog.text[i];
        const Addr a = prog.textBase + static_cast<Addr>(i) * kParcelBytes;
        bytes_[a] = static_cast<std::uint8_t>(p);
        bytes_[a + 1] = static_cast<std::uint8_t>(p >> 8);
    }

    if (prog.dataBase + prog.data.size() > prog.memBytes)
        throw CrispError("data segment does not fit in memory");
    for (std::size_t i = 0; i < prog.data.size(); ++i)
        bytes_[prog.dataBase + i] = prog.data[i];
}

void
MemoryImage::outOfRange(Addr a)
{
    throw CrispError("memory access out of range: " + hexAddr(a));
}

} // namespace crisp
