/**
 * @file
 * Server-side caches keyed on program-hash × policy.
 *
 * Two layers, both bounded and LRU-evicted:
 *
 *  - ProgramRegistry interns parsed programs by FNV-1a hash of their
 *    object-file bytes. Each entry holds predecode tables warmed
 *    eagerly (PredecodeCache::warmAll) so every worker simulating the
 *    same program × fold policy shares one read-only decode table —
 *    the PR 2 predecode sharing, promoted from replay loops to a
 *    multi-tenant service. Every program shares: warmAll memoizes a
 *    parcel that does not decode as an error entry, so each table
 *    warms completely. The first job for a program × policy warms it,
 *    outside the registry lock; later jobs wait for that warm-up only
 *    if it is still running.
 *
 *  - ResultCache memoizes terminal kDone results by hash × the full
 *    policy key. Simulation is deterministic, so the millionth request
 *    for a hot workload is a map lookup, not a simulation.
 *
 * Both are internally locked; entries handed out are shared_ptrs, so
 * eviction never invalidates a running job's tables.
 */

#ifndef CRISP_SERVICE_CACHE_HH
#define CRISP_SERVICE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "isa/program.hh"
#include "protocol.hh"
#include "sim/predecode.hh"
#include "sim/translate.hh"

namespace crisp::service
{

/** FNV-1a 64-bit over raw bytes (the program identity hash). */
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

/** Everything that makes two jobs' simulations identical. */
struct PolicyKey
{
    std::uint64_t hash = 0;
    FoldPolicy foldPolicy = FoldPolicy::kCrisp;
    PredictorKind predictor = PredictorKind::kStaticBit;
    /** Fast and cycle runs of the same program produce different
     *  payloads (cycles vs. none) — the engine is part of identity. */
    EngineKind engine = EngineKind::kCycle;
    std::uint32_t dicEntries = 32;
    std::uint32_t memLatency = 3;
    std::uint64_t maxCycles = 0;

    auto
    tie() const
    {
        return std::make_tuple(hash, foldPolicy, predictor, engine,
                               dicEntries, memLatency, maxCycles);
    }
    bool operator<(const PolicyKey& o) const { return tie() < o.tie(); }
};

class ProgramRegistry
{
  public:
    struct Entry
    {
        Program prog;
        std::uint64_t hash = 0;
        /** Tables over prog; a policy's table is read-only once its
         *  warmed flag has run. */
        std::unique_ptr<PredecodeCache> predecode;
        std::once_flag warmed[3];
        /** Warm threaded-code translations over prog, one per fold
         *  policy. Built once, on the first fast-engine request, and
         *  read-only thereafter: the million-th fast-engine request
         *  for a hot program pays zero translate cost. */
        std::unique_ptr<Translation> translation[3];
        std::once_flag translated[3];
    };

    explicit ProgramRegistry(std::size_t cap) : cap_(cap) {}

    /**
     * Intern @p prog (already validated by the hardened loader) under
     * @p hash, or return the existing entry. The returned entry is
     * immutable except through registry methods.
     */
    std::shared_ptr<Entry> intern(std::uint64_t hash, Program&& prog);

    /**
     * The shared predecode tables for @p policy, warming them now if
     * this is the first request. Read-only from then on, so workers
     * share them without locking.
     */
    PredecodeCache& sharedTables(const std::shared_ptr<Entry>& entry,
                                 FoldPolicy policy);

    /**
     * The warm shared Translation for @p policy, building it now over
     * the warmed predecode tables if this is the first fast-engine
     * request.
     */
    const Translation&
    sharedTranslation(const std::shared_ptr<Entry>& entry,
                      FoldPolicy policy);

    std::size_t size() const;

  private:
    void evictIfNeeded();

    const std::size_t cap_;
    /** Guards entries_ and lru_ only; warming runs under each entry's
     *  once flags. */
    mutable std::mutex mu_;
    std::map<std::uint64_t, std::shared_ptr<Entry>> entries_;
    /** LRU order, most recent at the back. */
    std::list<std::uint64_t> lru_;
};

/** Memoized terminal results (kDone only — failures are re-earned). */
class ResultCache
{
  public:
    explicit ResultCache(std::size_t cap) : cap_(cap) {}

    /** @return the cached result with cacheHit set, if present. */
    std::optional<JobResult> lookup(const PolicyKey& key);

    void store(const PolicyKey& key, const JobResult& result);

    std::size_t size() const;

  private:
    const std::size_t cap_;
    mutable std::mutex mu_;
    struct Slot
    {
        JobResult result;
        std::list<PolicyKey>::iterator lruIt;
    };
    std::map<PolicyKey, Slot> entries_;
    std::list<PolicyKey> lru_; //!< most recent at the back
};

} // namespace crisp::service

#endif // CRISP_SERVICE_CACHE_HH
