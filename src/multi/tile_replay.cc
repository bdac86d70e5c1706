#include "multi/tile_replay.hh"

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
    // Either way the run is not set-local. Everything else is: see
    // the header's proof sketch.
    return config.replacement != ReplacementPolicy::Random &&
           config.fetch != FetchPolicy::PrefetchNextOnMiss;
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

ShardWindow
ShardWindow::with(const CacheConfig &config) const
{
    const CacheGeometry geom(config);
    return {std::max(low, geom.blockBits()),
            std::min(high, geom.blockBits() + floorLog2(geom.numSets()))};
}

TileReplay::TileReplay(const std::vector<CacheConfig> &configs,
                       std::uint32_t num_shards,
                       std::size_t chunk_records, RefStream stream)
    : configs_(configs), chunkRecords_(chunk_records), stream_(stream)
{
    occsim_assert(!configs.empty(), "tile needs a config");
    occsim_assert(chunkRecords_ > 0, "chunk size must be positive");
    occsim_assert(isPowerOfTwo(num_shards) && num_shards <= kMaxShards,
                  "bad shard count %u", num_shards);
    shardBits_ = floorLog2(num_shards);
    if (num_shards > 1) {
        ShardWindow window;
        for (const CacheConfig &config : configs) {
            occsim_assert(shardEligible(config),
                          "sharding an ineligible config (%s)",
                          config.fullName().c_str());
            window = window.with(config);
        }
        occsim_assert(window.holds(shardBits_),
                      "%u shards at bit %u leave a member's set field "
                      "(ends at bit %u)",
                      num_shards, window.low, window.high);
        windowBits_ = window.low;
    }
    caches_.reserve(static_cast<std::size_t>(num_shards) *
                    configs.size());
    for (std::uint32_t s = 0; s < num_shards; ++s) {
        for (const CacheConfig &config : configs)
            caches_.push_back(std::make_unique<Cache>(config));
    }
    refs_.assign(num_shards, 0);
}

template <class Rec>
void
TileReplay::runShard(std::size_t shard, const Rec *refs, std::size_t n)
{
    occsim_assert(shard < refs_.size(), "shard %zu of %zu", shard,
                  refs_.size());
    const bool batch = refs_.size() == 1;
    OCCSIM_TELEM_STAGE(batch ? "engine.batch" : "engine.shard");
    const std::size_t members = configs_.size();
    const auto tile = caches_.begin() +
                      static_cast<std::ptrdiff_t>(shard * members);
    // Chunk-blocked: every member replays one chunk before the filter
    // reads the next, so the chunk stays L2-resident across the tile.
    // Each cache still sees its records strictly in trace order.
    const std::uint64_t kept = forEachShardChunk(
        refs, n, windowBits_, shardBits_,
        static_cast<std::uint32_t>(shard),
        [&](const PackedRecord *records, std::size_t count) {
            for (auto it = tile; it != tile + members; ++it)
                (*it)->replayPacked(records, count);
        },
        chunkRecords_, stream_);
    for (auto it = tile; it != tile + members; ++it)
        (*it)->finalizeResidencies();
    refs_[shard] += kept;
    OCCSIM_TELEM_COUNT(batch ? "engine.batch.refs" : "engine.shard.refs",
                       kept * members);
    OCCSIM_TELEM_COUNT(batch ? "engine.batch.bytes" : "engine.shard.bytes",
                       n * sizeof(Rec));
}

template void TileReplay::runShard(std::size_t, const MemRef *,
                                   std::size_t);
template void TileReplay::runShard(std::size_t, const PackedRecord *,
                                   std::size_t);

CacheStats
TileReplay::mergedStats(std::size_t m) const
{
    const CacheGeometry geom(configs_[m]);
    CacheStats merged(geom.subBlocksPerBlock(),
                      geom.subBlocksPerBlock() *
                          geom.wordsPerSubBlock());
    for (std::size_t s = 0; s < refs_.size(); ++s)
        merged.mergeFrom(caches_[s * configs_.size() + m]->stats());
    return merged;
}

std::vector<SweepResult>
TileReplay::results() const
{
    std::vector<SweepResult> out;
    out.reserve(configs_.size());
    for (std::size_t m = 0; m < configs_.size(); ++m) {
        out.push_back(summarizeStats(
            configs_[m], CacheGeometry(configs_[m]).grossBytes(),
            mergedStats(m)));
    }
    return out;
}

void
ShardTelemetry::accumulate(std::span<const std::uint64_t> shard_refs,
                           std::size_t runs)
{
    const auto [lo, hi] =
        std::minmax_element(shard_refs.begin(), shard_refs.end());
    maxShardRefs = std::max(maxShardRefs, *hi);
    minShardRefs = shardedRuns == 0 ? *lo : std::min(minShardRefs, *lo);
    maxShards = std::max(maxShards,
                         static_cast<std::uint32_t>(shard_refs.size()));
    shardedRuns += runs;
}

} // namespace occsim
