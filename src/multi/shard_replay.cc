#include "multi/shard_replay.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "cache/cache_geometry.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace occsim {

bool
shardEligible(const CacheConfig &config)
{
    // Random replacement draws victims from one Rng shared by every
    // set; PrefetchNextOnMiss allocates in the sequentially-next
    // block, i.e. in another set (and with >1 shard, another shard).
    // A split I/D pair routes by reference kind, not set index, so
    // its two halves see different sub-traces. Either way the run is
    // not set-local. Everything else is: see the header's proof
    // sketch.
    return config.replacement != ReplacementPolicy::Random &&
           config.fetch != FetchPolicy::PrefetchNextOnMiss &&
           config.partition == CachePartition::Unified;
}

ShardMode
shardModeFromEnv()
{
    const char *env = std::getenv("OCCSIM_SHARD");
    if (env == nullptr)
        return ShardMode::Heuristic;
    if (std::strcmp(env, "0") == 0)
        return ShardMode::Off;
    if (std::strcmp(env, "1") == 0)
        return ShardMode::Force;
    warn("ignoring bad OCCSIM_SHARD '%s' (want 0 or 1)", env);
    return ShardMode::Heuristic;
}

std::uint32_t
planShardCount(const CacheConfig &config, unsigned threads)
{
    if (threads < 2 || !shardEligible(config))
        return 1;
    const CacheGeometry geom(config);
    std::uint32_t shards = 1;
    while (shards < threads && shards < kMaxShards)
        shards <<= 1;
    while (shards > geom.numSets())
        shards >>= 1;
    return shards;
}

bool
shouldShard(ShardMode mode, const CacheConfig &config,
            unsigned threads, std::uint64_t refs,
            std::size_t competing_tasks)
{
    if (planShardCount(config, threads) < 2)
        return false;
    switch (mode) {
      case ShardMode::Off:
        return false;
      case ShardMode::Force:
        return true;
      case ShardMode::Heuristic:
        // Shard when one run is long enough to be worth splitting AND
        // the rest of the grid cannot keep the pool busy by itself.
        return refs >= kShardMinRefs && competing_tasks < threads;
    }
    return false;
}

ShardReplay::ShardReplay(const CacheConfig &config,
                         std::uint32_t num_shards)
    : config_(config)
{
    const CacheGeometry geom(config);
    occsim_assert(shardEligible(config),
                  "sharding an ineligible config (%s)",
                  config.fullName().c_str());
    occsim_assert(isPowerOfTwo(num_shards) && num_shards >= 2 &&
                      num_shards <= geom.numSets() &&
                      num_shards <= kMaxShards,
                  "bad shard count %u for %u sets", num_shards,
                  geom.numSets());
    blockBits_ = geom.blockBits();
    shardBits_ = floorLog2(num_shards);
    grossBytes_ = geom.grossBytes();
    caches_.reserve(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s)
        caches_.push_back(std::make_unique<Cache>(config));
    refs_.assign(num_shards, 0);
}

template <class Rec>
void
ShardReplay::runShard(std::size_t shard, const Rec *refs, std::size_t n)
{
    occsim_assert(shard < caches_.size(), "shard %zu of %zu", shard,
                  caches_.size());
    OCCSIM_TELEM_STAGE("engine.shard");
    Cache &cache = *caches_[shard];
    const std::uint64_t kept = forEachShardChunk(
        refs, n, blockBits_, shardBits_,
        static_cast<std::uint32_t>(shard),
        [&](const PackedRecord *records, std::size_t count) {
            cache.replayPacked(records, count);
        });
    cache.finalizeResidencies();
    refs_[shard] += kept;
    OCCSIM_TELEM_COUNT("engine.shard.refs", kept);
    OCCSIM_TELEM_COUNT("engine.shard.bytes", n * sizeof(Rec));
}

template void ShardReplay::runShard(std::size_t, const MemRef *,
                                    std::size_t);
template void ShardReplay::runShard(std::size_t, const PackedRecord *,
                                    std::size_t);

CacheStats
ShardReplay::mergedStats() const
{
    const CacheGeometry geom(config_);
    CacheStats merged(geom.subBlocksPerBlock(),
                      geom.subBlocksPerBlock() *
                          geom.wordsPerSubBlock());
    for (const auto &cache : caches_)
        merged.mergeFrom(cache->stats());
    return merged;
}

SweepResult
ShardReplay::result() const
{
    return summarizeStats(config_, grossBytes_, mergedStats());
}

void
ShardTelemetry::accumulate(const ShardReplay &engine)
{
    std::uint64_t lo = engine.shardRefs(0);
    std::uint64_t hi = lo;
    for (std::uint32_t s = 1; s < engine.numShards(); ++s) {
        lo = std::min(lo, engine.shardRefs(s));
        hi = std::max(hi, engine.shardRefs(s));
    }
    maxShardRefs = std::max(maxShardRefs, hi);
    minShardRefs = shardedRuns == 0 ? lo : std::min(minShardRefs, lo);
    maxShards = std::max(maxShards, engine.numShards());
    ++shardedRuns;
}

} // namespace occsim
