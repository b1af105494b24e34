/**
 * @file
 * CRISP's stack cache: the on-chip memory that makes memory-to-memory
 * operand access fast. The original chip kept the top of the stack in
 * a register-file-like structure ("32 192-bit entries ... Stack
 * Cache" feeding the EU operand ports).
 *
 * Model: accesses to stack words within `words` of the current stack
 * pointer hit; deeper frames miss. By default misses carry no timing
 * penalty (the paper's Table 4 shows no operand stalls for its loop,
 * whose frame fits trivially); a penalty can be configured to study
 * deep-recursion behaviour (SimConfig::stackCacheMissPenalty).
 */

#ifndef CRISP_SIM_STACK_CACHE_HH
#define CRISP_SIM_STACK_CACHE_HH

#include <cstdint>

#include "isa/types.hh"

namespace crisp
{

class StackCache
{
  public:
    explicit StackCache(int words) : words_(static_cast<Addr>(words)) {}

    /**
     * Record an access to the stack word at byte address @p addr while
     * the stack pointer is @p sp. @return true on a hit.
     */
    bool
    access(Addr addr, Addr sp)
    {
        const bool hit =
            addr >= sp && addr < sp + words_ * kWordBytes;
        if (hit)
            ++hits_;
        else
            ++misses_;
        return hit;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    Addr words_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace crisp

#endif // CRISP_SIM_STACK_CACHE_HH
