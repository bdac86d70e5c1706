/**
 * @file
 * Tiled replay: one trace priced through a tile of configs, chunk by
 * chunk, at one or more set shards.
 *
 * The direct sweep engine streams the whole trace through one Cache
 * at a time: every config pays one full pass of trace memory traffic
 * plus one Cache::access() call per reference (an outcome probe and a
 * one-record kernel call). TileReplay restructures that loop around
 * the memory system instead of around the configs:
 *
 *  - a tile's configs share every trace chunk: each chunk (256 KB of
 *    packed records, L2-resident) is replayed through every member's
 *    cache before the next chunk is touched, so the trace is read
 *    once per tile instead of once per config;
 *  - each cache replays a whole chunk in one Cache::replayPacked
 *    call, through the kernel specialized at construction for its
 *    policy combination;
 *  - with more than one shard, the trace is split by a window of
 *    block-address bits (forEachShardChunk) and each shard replays on
 *    private Caches, so one long (trace, config) run spreads over
 *    several workers. With one shard the filter is the identity: a
 *    packed span replays in place, and a MemRef span is packed one
 *    chunk at a time into a buffer private to the call;
 *  - a tile may instead keep one reference kind (RefStream): the
 *    halves of split I/D configs ride tiles of their own, the I
 *    halves behind an ifetch filter and the D halves behind a data
 *    filter, so a split config is two ordinary unified members.
 *
 * Sharding needs set-local behaviour: what happens in one set must
 * never depend on references to other sets (shardEligible). Two
 * policies break that:
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
 * ineligible config and exhibiting the divergence. A one-shard tile
 * takes any unified config. The kind filter keeps a set-local run
 * set-local: a split half sees a sub-trace of its kind, and sharding
 * that sub-trace by set is exact for the same reasons.
 *
 * The filter only needs the shard bits to pick whole sets, i.e. to
 * lie inside every member's set-index field
 * [blockBits, blockBits + log2(numSets)): the window is address bits
 * [B, B + log2(shards)), B the largest member block bits
 * (ShardWindow). Every CacheStats field is an integer sum over the
 * references that produced it, so summing the per-shard stats and
 * feeding the totals through summarizeStats() reproduces the
 * unsharded run bit for bit. Chunks and shards change only the
 * interleaving BETWEEN independent caches, never the reference order
 * seen by any one cache.
 */

#ifndef OCCSIM_MULTI_TILE_REPLAY_HH
#define OCCSIM_MULTI_TILE_REPLAY_HH

#include <memory>
#include <span>
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
 * One tile of (trace, config) runs: numShards private Caches per
 * member config, each replaying one set shard of the trace.
 * runShard(s, ...) only touches shard s's caches and counter (its
 * chunk buffer is local to the call), so distinct shards are safe to
 * run concurrently with no synchronization; merging happens
 * single-threaded afterwards.
 *
 * Telemetry names the route: a one-shard tile reports stage
 * engine.batch, a sharded one engine.shard, each with .refs (records
 * kept times members) and .bytes (records read) counters.
 */
class TileReplay
{
  public:
    /**
     * @param configs one result slot per entry.
     * @param num_shards a power of two in [1, kMaxShards]. Above one,
     *        every config must be shardEligible and the tile's window
     *        must hold the shard bits (ShardWindow; for a single
     *        config, num_shards <= numSets).
     * @param chunk_records records filtered and replayed per chunk
     *        (the differential fuzzer uses deliberately awkward
     *        values like 7 to exercise chunk-boundary handling).
     * @param stream the records every member sees: all of them, or
     *        one side of split I/D pairs whose halves the members are.
     */
    TileReplay(const std::vector<CacheConfig> &configs,
               std::uint32_t num_shards,
               std::size_t chunk_records = kShardChunkRecords,
               RefStream stream = RefStream::All);

    /** Member configs in the tile. */
    std::size_t size() const { return configs_.size(); }
    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(refs_.size());
    }
    /** Lowest address bit of the shard window (0 at one shard). */
    std::uint32_t windowBits() const { return windowBits_; }
    /** The reference kinds the members see. */
    RefStream stream() const { return stream_; }

    /** Filter the stream records of shard @p shard among the first
     *  @p n of @p refs once (forEachShardChunk), replay each chunk
     *  through every member's shard cache, and finalize their
     *  residencies — per member exactly one Cache::run pass over that
     *  sub-trace. @p Rec is MemRef or PackedRecord. Repeated passes
     *  accumulate as if the traces were concatenated (same contract
     *  as Cache::run). */
    template <class Rec>
    void runShard(std::size_t shard, const Rec *refs, std::size_t n);

    /** Replay @p refs through every shard in order (the sequential
     *  driver; sweeps schedule runShard themselves). */
    template <class Rec>
    void run(const Rec *refs, std::size_t n)
    {
        for (std::size_t s = 0; s < refs_.size(); ++s)
            runShard(s, refs, n);
    }

    /** References replayed per shard so far (imbalance telemetry);
     *  every member sees the same ones. */
    const std::vector<std::uint64_t> &shardRefs() const { return refs_; }

    /** Member @p m's per-shard statistics summed (exact integer
     *  merge). */
    CacheStats mergedStats(std::size_t m) const;

    /** Summaries of the merged runs in member order — bit-identical
     *  to unsharded replays of the same records. */
    std::vector<SweepResult> results() const;

  private:
    std::vector<CacheConfig> configs_;
    std::size_t chunkRecords_;
    RefStream stream_;
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
    /** (trace, config) runs sharded; each sharded half of a split
     *  I/D config counts as one run. */
    std::size_t shardedRuns = 0;
    std::uint32_t maxShards = 0;   ///< largest shard count used
    std::uint64_t maxShardRefs = 0;  ///< fullest shard sub-trace
    std::uint64_t minShardRefs = 0;  ///< emptiest shard sub-trace

    /** Fold one finished sharded engine, given its per-shard
     *  reference counts, into the summary as @p runs sharded runs:
     *  one per tile member, one per fused group. */
    void accumulate(std::span<const std::uint64_t> shard_refs,
                    std::size_t runs);
};

} // namespace occsim

#endif // OCCSIM_MULTI_TILE_REPLAY_HH
