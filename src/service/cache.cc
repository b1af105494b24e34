/**
 * @file
 * Program registry and result cache implementation.
 */

#include "cache.hh"

#include <algorithm>

namespace crisp::service
{

std::uint64_t
fnv1a(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::shared_ptr<ProgramRegistry::Entry>
ProgramRegistry::intern(std::uint64_t hash, Program&& prog)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(hash);
    if (it != entries_.end()) {
        lru_.remove(hash);
        lru_.push_back(hash);
        return it->second;
    }
    auto entry = std::make_shared<Entry>();
    entry->prog = std::move(prog);
    entry->hash = hash;
    // The cache references entry->prog; the entry lives behind a
    // shared_ptr and never moves, so the reference stays valid for the
    // cache's whole life even across registry eviction.
    entry->predecode = std::make_unique<PredecodeCache>(entry->prog);
    entries_.emplace(hash, entry);
    lru_.push_back(hash);
    evictIfNeeded();
    return entry;
}

PredecodeCache&
ProgramRegistry::sharedTables(const std::shared_ptr<Entry>& entry,
                              FoldPolicy policy)
{
    const auto p = static_cast<std::size_t>(policy);
    std::call_once(entry->warmed[p],
                   [&] { entry->predecode->warmAll(policy); });
    return *entry->predecode;
}

const Translation&
ProgramRegistry::sharedTranslation(const std::shared_ptr<Entry>& entry,
                                   FoldPolicy policy)
{
    PredecodeCache& tables = sharedTables(entry, policy);
    const auto p = static_cast<std::size_t>(policy);
    // References entry->prog, which never moves behind its shared_ptr.
    std::call_once(entry->translated[p], [&] {
        entry->translation[p] =
            std::make_unique<Translation>(entry->prog, policy, &tables);
    });
    return *entry->translation[p];
}

std::size_t
ProgramRegistry::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
}

void
ProgramRegistry::evictIfNeeded()
{
    while (entries_.size() > cap_ && !lru_.empty()) {
        // Holders of the shared_ptr (running jobs) keep the entry
        // alive; eviction only forgets it for future interns.
        entries_.erase(lru_.front());
        lru_.pop_front();
    }
}

std::optional<JobResult>
ResultCache::lookup(const PolicyKey& key)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    lru_.splice(lru_.end(), lru_, it->second.lruIt);
    JobResult r = it->second.result;
    r.cacheHit = true;
    return r;
}

void
ResultCache::store(const PolicyKey& key, const JobResult& result)
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
        it->second.result = result;
        lru_.splice(lru_.end(), lru_, it->second.lruIt);
        return;
    }
    lru_.push_back(key);
    Slot slot;
    slot.result = result;
    slot.lruIt = std::prev(lru_.end());
    entries_.emplace(key, std::move(slot));
    while (entries_.size() > cap_ && !lru_.empty()) {
        entries_.erase(lru_.front());
        lru_.pop_front();
    }
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
}

} // namespace crisp::service
