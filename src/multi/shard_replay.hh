/**
 * @file
 * Set-sharded intra-trace replay — engine 5 of the sweep stack.
 *
 * All other engines parallelize ACROSS (trace, config) tasks; one
 * huge trace on one config is strictly serial for them. This engine
 * splits that single run: under any set-local policy combination the
 * cache sets never interact, so the trace can be split by the low
 * bits of the block address (forEachShardChunk) and each shard
 * replayed on its own private Cache by a different worker. Every
 * CacheStats field is an integer sum over the references that
 * produced it, so summing the per-shard stats and feeding the totals
 * through summarizeStats() reproduces the unsharded run bit for bit.
 *
 * Routing predicate (shardEligible): a config may be sharded iff its
 * behaviour is set-local, i.e. what happens in one set never depends
 * on references to other sets. Two policies break that:
 *
 *  - Random replacement: all sets of one cache share a single Rng
 *    stream, so the victim chosen in set A depends on how many
 *    replacements other sets performed before it — a global
 *    interleaving, destroyed by sharding.
 *  - PrefetchNextOnMiss: a miss on the last sub-block of a block
 *    prefetches into the sequentially NEXT block, which lives in the
 *    next set — with more than one shard that allocation would land
 *    in a different shard's cache (the instruction-buffer /
 *    remote-PC style next-line interaction).
 *
 * Demand and load-forward fetches only ever move data within the
 * missed block, LRU/FIFO order is per-set state, and write policies
 * touch only the accessed frame, so everything else is shardable.
 * Tests prove both directions of this predicate by force-sharding an
 * ineligible config and exhibiting the divergence.
 *
 * Shard tiles: the filter only needs the shard bits to pick whole
 * sets, i.e. to lie inside the config's set-index field
 * [blockBits, blockBits + log2(numSets)). So one ShardReplay prices a
 * TILE of configs at one shard count: the window is address bits
 * [B, B + log2(shards)), B the largest member block bits, and it must
 * end inside every member's set field (ShardWindow). Shard s's task
 * filters the trace once and replays each filtered chunk through
 * every member's shard-s Cache, so a tile of k configs reads the
 * trace once per shard instead of k times.
 */

#ifndef OCCSIM_MULTI_SHARD_REPLAY_HH
#define OCCSIM_MULTI_SHARD_REPLAY_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "multi/sweep_runner.hh"
#include "trace/packed_trace.hh"

namespace occsim {

/** True when @p config's per-set behaviour is independent of other
 *  sets, so a set-sharded replay merges bit-identically (see the
 *  file comment for the proof sketch). */
bool shardEligible(const CacheConfig &config);

/** OCCSIM_SHARD override: 0 = never shard, 1 = shard every eligible
 *  run, unset = heuristic. */
enum class ShardMode : std::uint8_t { Heuristic, Off, Force };

/** Parse OCCSIM_SHARD (warning + Heuristic on a bad value). */
ShardMode shardModeFromEnv();

/** Upper bound on shards per run: bounds the per-run Cache
 *  duplication (each shard owns a full frame array). */
inline constexpr std::uint32_t kMaxShards = 64;

/** Sharding only pays once each worker gets a meaty sub-trace; below
 *  this many references the per-task filter scan, the per-shard
 *  Cache setup and the merge dominate. */
inline constexpr std::uint64_t kShardMinRefs = 1u << 18;

/**
 * Number of shards a sharded run of @p config would use on
 * @p threads workers: the smallest power of two >= threads, clamped
 * to the set count (a shard must own whole sets) and kMaxShards.
 * Returns 1 — no sharding possible — for ineligible configs and for
 * single-set (fully associative) geometries.
 */
std::uint32_t planShardCount(const CacheConfig &config,
                             unsigned threads);

/**
 * Auto-routing heuristic: shard one (trace, config) run iff the
 * override mode or the workload shape says so. @p competing_tasks is
 * the number of schedulable unsharded tasks the surrounding sweep
 * already has — when the task grid alone can keep every worker busy,
 * task parallelism is cheaper than sharding.
 */
bool shouldShard(ShardMode mode, const CacheConfig &config,
                 unsigned threads, std::uint64_t refs,
                 std::size_t competing_tasks);

/** The shard window of a tile: address bits [low, low + shard bits),
 *  which must stay below @c high, the lowest top of a member's
 *  set-index field. A default window admits any config. */
struct ShardWindow
{
    std::uint32_t low = 0;
    std::uint32_t high = ~std::uint32_t{0};

    /** This window with @p config added to the tile. */
    ShardWindow with(const CacheConfig &config) const;

    /** True when @p shard_bits window bits from @c low pick whole
     *  sets of every member. */
    bool holds(std::uint32_t shard_bits) const
    {
        return low + shard_bits <= high;
    }
};

/**
 * One sharded tile of (trace, config) runs: numShards private Caches
 * per member config, each replaying one set shard of the trace.
 * runShard(s, ...) only touches shard s's caches and counter (its
 * filter buffer is local to the call), so distinct shards are safe to
 * run concurrently with no synchronization; merging happens
 * single-threaded afterwards.
 */
class ShardReplay
{
  public:
    /** @p configs must all be shardEligible and @p num_shards a power
     *  of two in [2, kMaxShards] whose window holds for the tile
     *  (ShardWindow; for a single config, num_shards <= numSets). */
    ShardReplay(const std::vector<CacheConfig> &configs,
                std::uint32_t num_shards);

    /** Member configs in the tile. */
    std::size_t size() const { return configs_.size(); }
    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(refs_.size());
    }
    /** Lowest address bit of the shard window. */
    std::uint32_t windowBits() const { return windowBits_; }

    /** Filter the records of shard @p shard among the first @p n of
     *  @p refs once (forEachShardChunk), replay each filtered chunk
     *  through every member's shard cache, and finalize their
     *  residencies — per member exactly one Cache::run pass over that
     *  sub-trace. @p Rec is MemRef or PackedRecord; the filter packs
     *  MemRef records as it compacts them. */
    template <class Rec>
    void runShard(std::size_t shard, const Rec *refs, std::size_t n);

    /** References replayed by @p shard so far (imbalance telemetry);
     *  every member sees the same ones. */
    std::uint64_t shardRefs(std::size_t shard) const
    {
        return refs_[shard];
    }

    /** Member @p m's per-shard statistics summed (exact integer
     *  merge). */
    CacheStats mergedStats(std::size_t m) const;

    /** Summaries of the merged runs in member order — bit-identical
     *  to unsharded replays of the same records. */
    std::vector<SweepResult> results() const;

  private:
    std::vector<CacheConfig> configs_;
    std::uint32_t windowBits_ = 0;
    std::uint32_t shardBits_ = 0;
    /** Shard-major: shard s's caches are [s * size(), (s+1) * size()). */
    std::vector<std::unique_ptr<Cache>> caches_;
    std::vector<std::uint64_t> refs_;
};

/**
 * Shard-imbalance summary across the sharded runs of one sweep. A
 * skewed set distribution (hot sets) shows up as maxShardRefs >>
 * minShardRefs: one worker drags the merge barrier while others
 * idle. Surfaced through the RunManifest so occsim-report makes the
 * skew visible.
 */
struct ShardTelemetry
{
    std::size_t shardedRuns = 0;   ///< (trace, config) runs sharded
    std::uint32_t maxShards = 0;   ///< largest shard count used
    std::uint64_t maxShardRefs = 0;  ///< fullest shard sub-trace
    std::uint64_t minShardRefs = 0;  ///< emptiest shard sub-trace

    /** Fold one finished shard tile into the summary (one sharded
     *  run per member config). */
    void accumulate(const ShardReplay &engine);
    /** Fold one finished sharded fused-group run (counts as ONE
     *  sharded run however many configs it priced). Defined in
     *  multi/fused_replay.cc. */
    void accumulate(const class FusedReplay &engine);
};

} // namespace occsim

#endif // OCCSIM_MULTI_SHARD_REPLAY_HH
