#include "calib.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <utility>
#include <vector>

#include "trace.hh"

namespace layerbench
{

namespace
{

/** Keeps the kernels' results observable so no work is optimized away. */
volatile std::uint64_t sink = 0;

/** Reference kernel times (ms): their medians on the reference host. */
constexpr double kRefVmMs = 1.80;
constexpr double kRefMapMs = 9.00;
constexpr double kRefChaseMs = 9.70;

std::uint64_t
vmKernel()
{
    // A switch-dispatched bytecode loop over a small register file and
    // memory: the shape of an instruction-set simulator's inner loop.
    enum Op : std::uint8_t { kAdd, kXor, kLoad, kStore, kBranch, kEnd };
    static const std::uint8_t kProgram[] = {kAdd,   kLoad, kXor,  kStore,
                                            kAdd,   kXor,  kLoad, kBranch,
                                            kStore, kAdd,  kEnd};
    static std::uint32_t mem[1024];
    std::uint32_t r0 = 1, r1 = 7, acc = 0;
    for (std::uint32_t iter = 0; iter < 60000; ++iter) {
        for (std::size_t pc = 0; kProgram[pc] != kEnd; ++pc) {
            switch (kProgram[pc]) {
              case kAdd:
                r0 = r0 * 1103515245u + 12345u;
                break;
              case kXor:
                r1 ^= r0 >> 7;
                break;
              case kLoad:
                acc += mem[(r0 >> 8) & 1023];
                break;
              case kStore:
                mem[(r1 >> 4) & 1023] = acc;
                break;
              case kBranch:
                if ((r0 & 3) == 0)
                    ++pc;
                break;
              default:
                break;
            }
        }
    }
    return acc + r1;
}

/**
 * The map and chase kernels' memory: static, so the program's heap
 * state cannot change the kernels' cost.
 */
std::byte gArena[4 << 20];

std::uint64_t
mapKernel()
{
    // Ordered-map inserts and lookups over a few MB, the shape of the
    // analyzer's pc-keyed fixpoint state: it feels the shared cache the
    // way the paths do.
    std::pmr::monotonic_buffer_resource pool(gArena, sizeof(gArena));
    std::pmr::map<std::uint32_t, std::uint32_t> m(&pool);
    std::uint32_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
        x = x * 1103515245u + 12345u;
        m[x >> 4] += static_cast<std::uint32_t>(i);
    }
    std::uint64_t total = 0;
    std::uint32_t y = 12345;
    for (int i = 0; i < 20000; ++i) {
        y = y * 1103515245u + 12345u;
        total += m.find(y >> 4)->second;
    }
    return total;
}

std::uint64_t
chaseKernel()
{
    // Shuffle 4 MB of indices, then walk them as pointers: random
    // stores and dependent loads that miss the private caches, as the
    // paths' walks over cold heap data do. Neighbours' memory traffic
    // slows it most.
    auto* next = reinterpret_cast<std::uint32_t*>(gArena);
    const std::uint32_t n = sizeof(gArena) / (sizeof(std::uint32_t));
    std::uint32_t x = 12345;
    for (std::uint32_t i = 0; i < n; ++i)
        next[i] = i;
    for (std::uint32_t i = n - 1; i > 0; --i) {
        x = x * 1103515245u + 12345u;
        std::swap(next[i], next[(x >> 8) % i]);
    }
    std::uint32_t p = 0;
    std::uint64_t total = 0;
    for (int i = 0; i < 30000; ++i) {
        p = next[p];
        total += p;
    }
    return total;
}

template <class F>
double
timed(F f)
{
    const std::int64_t t0 = nowNs();
    sink = sink + f();
    return static_cast<double>(nowNs() - t0) / 1e6;
}

} // namespace

CalibSample
calibrate()
{
    return {timed(vmKernel), timed(mapKernel), timed(chaseKernel)};
}

double
hostIndex(const std::vector<CalibSample>& samples)
{
    const auto median = [&](double CalibSample::*kernel) {
        std::vector<double> v;
        for (const CalibSample& c : samples)
            v.push_back(c.*kernel);
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    };
    if (samples.empty())
        return 1;
    return std::cbrt(median(&CalibSample::vmMs) / kRefVmMs *
                     median(&CalibSample::mapMs) / kRefMapMs *
                     median(&CalibSample::chaseMs) / kRefChaseMs);
}

} // namespace layerbench
