/**
 * @file
 * The serve-layer result cache: completed (trace, config) sweep cells
 * keyed by manifest identity.
 *
 * Every exact engine in occsim is bit-identical for a given (trace
 * bytes, config, reference cap) — that is the repo's central testing
 * contract — which makes sweep results perfectly cacheable: the key
 * is the trace's content hash, the reference cap, the canonical
 * serialization of EVERY CacheConfig identity field
 * (serve::canonicalConfigJson), and — for multicore requests — the
 * canonical scenario serialization. Two requests share an entry exactly
 * when runSweep would be forced to produce bit-identical results for
 * them; differ in any identity field (even randomSeed on an LRU
 * config) and the key differs, so the request misses.
 *
 * Values are the serialized response payload: a hit replays the
 * exact bytes the first computation sent, so "served from cache" is
 * byte-identical on the wire, not merely value-equal after a
 * re-serialization.
 *
 * Bounded LRU; thread-safe. Each key is stored once, in the map; the
 * recency list points at the map's keys.
 */

#ifndef OCCSIM_SERVE_RESULT_CACHE_HH
#define OCCSIM_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/cache_config.hh"
#include "coherence/scenario.hh"

namespace occsim::serve {

class ResultCache
{
  public:
    /** @param capacity maximum resident entries (>= 1). */
    explicit ResultCache(std::size_t capacity = 4096);

    /** Identity key for one sweep cell. The scenario suffix is
     *  appended only for multicore scenarios, so a multicore request
     *  can never alias the single-cache entry of the same config and
     *  pre-scenario keys stay byte-identical. */
    static std::string key(const std::string &trace_hash,
                           std::uint64_t max_refs,
                           const CacheConfig &config,
                           const ScenarioConfig &scenario = {});

    /** Look up @p key; fills @p payload with the cell's serialized
     *  response bytes and refreshes recency on a hit. */
    bool lookup(const std::string &key, std::string &payload);

    /** Insert @p payload under @p key (no-op if already present — the
     *  first computation's bytes win, keeping hits byte-stable). */
    void insert(const std::string &key, std::string payload);

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::size_t size() const;

  private:
    /** Keys of entries_, most recent at front. */
    using Order = std::list<const std::string *>;

    struct Entry
    {
        std::string payload;  ///< serialized response bytes
        Order::iterator recency;
    };

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    Order order_;
    std::unordered_map<std::string, Entry> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace occsim::serve

#endif // OCCSIM_SERVE_RESULT_CACHE_HH
