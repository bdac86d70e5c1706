#include "serve/result_cache.hh"

#include "serve/protocol.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace occsim::serve {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity)
{
    occsim_assert(capacity_ >= 1, "zero-capacity result cache");
}

std::string
ResultCache::key(const std::string &trace_hash, std::uint64_t max_refs,
                 const CacheConfig &config,
                 const ScenarioConfig &scenario)
{
    std::string key = strfmt("%s/%llu/", trace_hash.c_str(),
                             static_cast<unsigned long long>(max_refs)) +
                      canonicalConfigJson(config);
    // "" for the 1-core default: single-cache keys are byte-stable,
    // and a multicore request can never alias one.
    const std::string suffix = canonicalScenarioJson(scenario);
    if (!suffix.empty())
        key += "/" + suffix;
    return key;
}

bool
ResultCache::lookup(const std::string &key, std::string &payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return false;
    }
    order_.splice(order_.begin(), order_, it->second.recency);
    ++hits_;
    payload = it->second.payload;
    return true;
}

void
ResultCache::insert(const std::string &key, std::string payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        entries_.try_emplace(key, Entry{std::move(payload), {}});
    if (!inserted)
        return;
    // Map nodes never move, so the list can point at their keys.
    order_.push_front(&it->first);
    it->second.recency = order_.begin();
    while (entries_.size() > capacity_) {
        entries_.erase(*order_.back());
        order_.pop_back();
    }
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace occsim::serve
